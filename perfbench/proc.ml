(* Server process lifecycle: private run directory, spawn, readiness wait,
   SIGTERM drain with waitpid, and cleanup on every exit path. *)

exception Fatal of string

let fatal fmt = Printf.ksprintf (fun s -> raise (Fatal s)) fmt

let now_ns () = Monotonic_clock.now ()

let secs_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* The fixed server configuration, identical for every workload. *)
let workers = 2
let fsync = "interval:5"

let server_args ~dir =
  [ "--workers"; string_of_int workers; "--wal"; Filename.concat dir "wal"; "--fsync"; fsync ]

(* Run directories and live servers, torn down at exit whatever the path
   out: normal return, [Fatal], an uncaught exception or SIGTERM/SIGINT. *)
let dirs : string list ref = ref []

type server = { pid : int; sock : string; log : string; mutable reaped : bool }

let live : server list ref = ref []

(* A fresh private directory under [root] for one run.  Paths stay relative
   to the working directory so the socket path fits the 108-byte limit
   however deep the checkout is. *)
let roots : string list ref = ref []

let run_dir ~root tag =
  mkdir_p root;
  if not (List.mem root !roots) then roots := root :: !roots;
  let rec attempt k =
    let d = Filename.concat root (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) k) in
    match Unix.mkdir d 0o700 with
    | () ->
        dirs := d :: !dirs;
        d
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> attempt (k + 1)
  in
  attempt 0

let log_tail s =
  match In_channel.with_open_bin s.log In_channel.input_all with
  | text ->
      let n = String.length text in
      if n > 2000 then String.sub text (n - 2000) 2000 else text
  | exception Sys_error _ -> ""

let exited s =
  if s.reaped then true
  else
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ -> false
    | _, _ ->
        s.reaped <- true;
        true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
        s.reaped <- true;
        true

let check_alive s =
  if exited s then fatal "gqd server (pid %d) died; log tail:\n%s" s.pid (log_tail s)

(* Spawn [gqd --listen] in [dir] with [args] and block until it accepts a
   connection; returns the connected socket. *)
let spawn ~gqd ~dir args =
  let sock = Filename.concat dir "gqd.sock" in
  let log = Filename.concat dir "gqd.log" in
  let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let argv = Array.of_list ((gqd :: "--listen" :: ("unix:" ^ sock) :: args)) in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close logfd;
        Unix.close null)
      (fun () -> Unix.create_process gqd argv null logfd logfd)
  in
  let s = { pid; sock; log; reaped = false } in
  live := s :: !live;
  let t0 = now_ns () in
  let rec wait () =
    check_alive s;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        if secs_since t0 > 60.0 then fatal "gqd server not ready after 60 s";
        Unix.sleepf 0.001;
        wait ()
  in
  (s, wait ())

let connect s =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX s.sock);
  fd

(* Peak resident set of the server, from the kernel's own accounting. *)
let peak_rss_mb s =
  let line =
    In_channel.with_open_text (Printf.sprintf "/proc/%d/status" s.pid) (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.starts_with ~prefix:"VmHWM:" l -> Some l
          | Some _ -> go ()
        in
        go ())
  in
  match line with
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
  | None -> fatal "no VmHWM for server pid %d" s.pid

(* Host CPU time stolen from this machine (a VM) by its hypervisor, from the
   first line of /proc/stat: (steal, total) in clock ticks over all CPUs,
   or [None] where the kernel does not report it. *)
let cpu_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some l when String.starts_with ~prefix:"cpu " l -> (
      match List.filter_map int_of_string_opt (String.split_on_char ' ' l) with
      | user :: nice :: system :: idle :: iowait :: irq :: softirq :: steal :: _ ->
          Some (steal, user + nice + system + idle + iowait + irq + softirq + steal)
      | _ -> None)
  | _ -> None
  | exception Sys_error _ -> None

(* Steal between two [cpu_ticks] readings, as a percentage of all CPU time;
   nan when unknown. *)
let steal_pct a b =
  match (a, b) with
  | Some (s0, t0), Some (s1, t1) when t1 > t0 -> 100.0 *. float_of_int (s1 - s0) /. float_of_int (t1 - t0)
  | _ -> nan

(* SIGTERM drain, then reap; SIGKILL if the drain overstays [grace].
   Returns true when the server drained and exited 0. *)
let stop s =
  let grace = 30.0 in
  if exited s then false
  else begin
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let t0 = now_ns () in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] s.pid with
      | 0, _ when secs_since t0 < grace ->
          Unix.sleepf 0.005;
          wait ()
      | 0, _ ->
          (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] s.pid);
          false
      | _, Unix.WEXITED 0 -> true
      | _, _ -> false
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false
    in
    let ok = wait () in
    s.reaped <- true;
    live := List.filter (fun x -> x != s) !live;
    ok
  end

let cleanup () =
  List.iter
    (fun s ->
      if not s.reaped then begin
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
        s.reaped <- true
      end)
    !live;
  live := [];
  List.iter (fun d -> try rm_rf d with Unix.Unix_error _ | Sys_error _ -> ()) !dirs;
  dirs := [];
  (* The parent of the run directories goes too, once empty. *)
  List.iter (fun d -> try Unix.rmdir d with Unix.Unix_error _ -> ()) !roots

let install () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let bail _ = exit 2 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle bail);
  Sys.set_signal Sys.sigint (Sys.Signal_handle bail);
  at_exit cleanup
