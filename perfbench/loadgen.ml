(* Closed-loop load generator: one process, one thread, a few connections,
   each with at most one outstanding request.  A connection sends its next
   request only after the reply to the previous one has fully arrived. *)

open Proc

(* --- reply fields --------------------------------------------------------- *)

let find s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then -1
    else if String.unsafe_get s i = String.unsafe_get sub 0 && String.sub s i m = sub then i
    else go (i + 1)
  in
  go from

(* The integer after ["key":], searching from [from]. *)
let int_field ?(from = 0) line key =
  let pat = "\"" ^ key ^ "\":" in
  let i = find line pat from in
  if i < 0 then None
  else
    let j = ref (i + String.length pat) in
    let start = !j in
    while !j < String.length line && (line.[!j] = '-' || (line.[!j] >= '0' && line.[!j] <= '9')) do
      incr j
    done;
    int_of_string_opt (String.sub line start (!j - start))

let str_field line key =
  let pat = "\"" ^ key ^ "\":\"" in
  let i = find line pat 0 in
  if i < 0 then None
  else
    let start = i + String.length pat in
    match String.index_from_opt line start '"' with
    | Some j -> Some (String.sub line start (j - start))
    | None -> None

(* The text between ["answers":[] and its closing bracket: answers are
   node names and "u -> v" pairs, which never contain a bracket. *)
let answers_text line =
  let pat = "\"answers\":[" in
  let i = find line pat 0 in
  if i < 0 then None
  else
    let start = i + String.length pat in
    match String.index_from_opt line start ']' with
    | Some j -> Some (String.sub line start (j - start))
    | None -> None

let answers_list text =
  if text = "" then []
  else
    List.map
      (fun s -> String.sub s 1 (String.length s - 2))
      (String.split_on_char ',' text)

(* --- connections ---------------------------------------------------------- *)

type conn = {
  idx : int;
  fd : Unix.file_descr;
  buf : Buffer.t;
  chunk : Bytes.t;
  mutable sent : int;  (** requests sent: the server numbers them 1, 2, ... *)
  mutable inflight : (Inputs.request * int64) option;
}

let conn idx fd =
  { idx; fd; buf = Buffer.create 65536; chunk = Bytes.create 65536; sent = 0; inflight = None }

let send c (req : Inputs.request) =
  c.sent <- c.sent + 1;
  let t = now_ns () in
  (match Wire.write_all c.fd (req.line ^ "\n") with
  | Ok () -> ()
  | Error `Closed -> fatal "connection %d closed by the server while sending" c.idx);
  c.inflight <- Some (req, t)

(* Read what is available; [Some line] once a whole reply has arrived. *)
let read_some server c =
  let n =
    try Unix.read c.fd c.chunk 0 (Bytes.length c.chunk)
    with Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> 0
  in
  if n = 0 then begin
    check_alive server;
    fatal "connection %d: server closed it with a reply missing" c.idx
  end;
  let before = Buffer.length c.buf in
  Buffer.add_subbytes c.buf c.chunk 0 n;
  let rec newline i = if i >= n then None else if Bytes.get c.chunk i = '\n' then Some i else newline (i + 1) in
  match newline 0 with
  | Some p ->
      let line = Buffer.sub c.buf 0 (before + p) in
      if before + p + 1 <> Buffer.length c.buf then
        fatal "connection %d: unsolicited bytes after a reply" c.idx;
      Buffer.clear c.buf;
      Some line
  | None -> None

(* How long a reply may take before it counts as missing. *)
let reply_timeout = 60.0

(* Drive [conns] in a closed loop.  [gen c] gives connection [c]'s next
   request, or [None] to let that connection go idle; [on_reply req line
   t_send t_recv] sees every reply.  Returns when nothing is in flight. *)
let run server conns ~gen ~on_reply =
  let start c = match gen c.idx with Some r -> send c r | None -> () in
  let receive ready c =
    if List.mem c.fd ready then
      match read_some server c with
      | None -> ()
      | Some line ->
          let t1 = now_ns () in
          let req, t0 = Option.get c.inflight in
          c.inflight <- None;
          on_reply c req line t0 t1;
          start c
  in
  let rec loop () =
    match List.filter (fun c -> c.inflight <> None) conns with
    | [] -> ()
    | busy -> (
        match Unix.select (List.map (fun c -> c.fd) busy) [] [] reply_timeout with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        | [], _, _ ->
            check_alive server;
            fatal "no reply within %.0f s" reply_timeout
        | ready, _, _ ->
            List.iter (receive ready) busy;
            loop ())
  in
  List.iter start conns;
  loop ()

(* One request on [c], synchronously. *)
let ask server c line =
  let result = ref "" in
  let once = ref true in
  run server [ c ]
    ~gen:(fun _ ->
      if !once then begin
        once := false;
        Some { Inputs.kind = Inputs.Write; line; regex = "" }
      end
      else None)
    ~on_reply:(fun _ _ l _ _ -> result := l);
  !result
