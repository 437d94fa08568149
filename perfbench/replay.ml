(* The traced run: replay a request stream single-threaded, in process, and
   record a span around each call into a layer's public functions.

   Spans live in memory and are written as JSONL at the end; a span's self
   time is its duration minus the durations of its children (spans are
   strictly nested, one request at a time). *)

open Proc

type span = {
  id : int;
  name : string;
  request : int;  (** the request the span belongs to; -1 for set-up *)
  parent : int;  (** enclosing span id; -1 for a root *)
  t0 : int64;
  mutable t1 : int64;
}

type tracer = {
  mutable on : bool;
  mutable spans : span list;
  mutable stack : span list;
  mutable next_id : int;
  mutable request : int;
}

let tracer () = { on = false; spans = []; stack = []; next_id = 0; request = -1 }

let span t name f =
  if not t.on then f ()
  else begin
    let parent = match t.stack with p :: _ -> p.id | [] -> -1 in
    let s = { id = t.next_id; name; request = t.request; parent; t0 = now_ns (); t1 = 0L } in
    t.next_id <- t.next_id + 1;
    t.stack <- s :: t.stack;
    let finish () =
      s.t1 <- now_ns ();
      t.stack <- List.tl t.stack;
      t.spans <- s :: t.spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* (span, self time in ns), oldest first. *)
let with_self spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let d = Int64.sub s.t1 s.t0 in
        Hashtbl.replace child s.parent
          (Int64.add d (Option.value ~default:0L (Hashtbl.find_opt child s.parent))))
    spans;
  List.rev_map
    (fun s ->
      let c = Option.value ~default:0L (Hashtbl.find_opt child s.id) in
      (s, Int64.sub (Int64.sub s.t1 s.t0) c))
    spans

let write_jsonl path spans =
  let base = match List.rev spans with s :: _ -> s.t0 | [] -> 0L in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun (s, self) ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"request\":%d,\"parent\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld,\"self_ns\":%Ld}\n"
            s.id s.name s.request s.parent (Int64.sub s.t0 base) (Int64.sub s.t1 base) self)
        (with_self spans))

(* --- the layered pass ----------------------------------------------------- *)

(* What one layered pass counted besides its spans. *)
type counts = {
  mutable compiles : int;
  mutable compile_misses : int;
  mutable products : int;
  mutable product_misses : int;
  mutable product_states : int;
  mutable product_edges : int;
  mutable reads : int;
  mutable answers : int;
  mutable reply_bytes : int;
  mutable writes : int;
  mutable invalidated_by_label : int;
  mutable retained : int;
  mutable push_sweeps : int;
  mutable pull_sweeps : int;
  mutable wal_fsyncs : int;
  mutable wal_bytes : int;
}

(* The server's group-commit policy. *)
let wal_policy = Result.get_ok (Wal.fsync_policy_of_string fsync)

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> fatal "%s: %s" what (Gq_error.to_string e)

let complete what = function
  | Governor.Complete v -> v
  | Governor.Partial _ | Governor.Aborted _ -> fatal "%s: evaluation did not complete" what

let counts () =
  {
    compiles = 0; compile_misses = 0; products = 0; product_misses = 0;
    product_states = 0; product_edges = 0; reads = 0; answers = 0;
    reply_bytes = 0; writes = 0; invalidated_by_label = 0; retained = 0;
    push_sweeps = 0; pull_sweeps = 0; wal_fsyncs = 0; wal_bytes = 0;
  }

(* Replay [requests] through the layers the server uses, in the order the
   server uses them, with a fresh graph, WAL and caches.  Only requests
   flagged [true] are measured: they get spans (when [spans]), feed the
   returned counts, and their wall time is the returned duration (ns); the
   others only bring the caches to the state the server had. *)
let layered t ~spans ~dir ~graph_file (requests : (Inputs.request * bool) list) =
  t.on <- spans;
  let metrics = Metrics.create () in
  let obs = Obs.make ~metrics () in
  let pg = span t "graph.load" (fun () -> Graph_io.load_file_res graph_file) in
  let pg = ok_or_fail "load" pg in
  let wal, _ = ok_or_fail "wal open" (Wal.open_res ~obs ~policy:wal_policy (Filename.concat dir "wal")) in
  ignore (ok_or_fail "checkpoint" (span t "wal.checkpoint" (fun () -> Wal.checkpoint_res wal pg)));
  let cache = Rpq_compile.create () in
  Rpq_compile.set_generation cache (Elg.id (Pg.elg pg));
  let cell = Epoch.create () in
  ignore (Epoch.publish cell pg);
  let plans = Rpq_compile.plans cache in
  let read k id (r : Inputs.request) =
    let pg = Option.get (Epoch.snapshot cell) in
    let g = Pg.elg pg in
    let m0 = Plan_cache.misses plans in
    let c = ok_or_fail "compile" (span t "plan.compile" (fun () -> Rpq_compile.compile ~obs cache r.regex)) in
    k.compiles <- k.compiles + 1;
    if Plan_cache.misses plans > m0 then k.compile_misses <- k.compile_misses + 1;
    let pm0 = Rpq_compile.product_misses cache in
    let p = span t "rpq.product" (fun () -> Rpq_compile.product ~obs cache g c) in
    k.products <- k.products + 1;
    if Rpq_compile.product_misses cache > pm0 then k.product_misses <- k.product_misses + 1;
    k.product_states <- k.product_states + Product.nb_states p;
    k.product_edges <- k.product_edges + Product.nb_product_edges p;
    let gov = Governor.unlimited () in
    let cmd, names =
      match r.kind with
      | Inputs.Read_from ->
          let src =
            match String.split_on_char ' ' r.line with
            | _ :: node :: _ -> Elg.node_id g node
            | _ -> fatal "bad request %S" r.line
          in
          let out =
            span t "rpq.eval" (fun () -> Rpq_compile.from_source_bounded ~obs cache gov g c ~src)
          in
          let out = complete r.line out in
          ("rpq-from", fun () -> List.map (Elg.node_name g) out)
      | _ ->
          let out = complete r.line (span t "rpq.eval" (fun () -> Rpq_compile.pairs_bounded ~obs cache gov g c)) in
          ("rpq", fun () -> List.map (fun (u, v) -> Elg.node_name g u ^ " -> " ^ Elg.node_name g v) out)
    in
    let reply =
      span t "server.encode" (fun () ->
          let answers = names () in
          Session.reply id cmd ~status:"ok" ~code:0
            [
              ("degraded", Wire.jbool false);
              ("attempts", Wire.jint 1);
              ("answers", Wire.jarr (List.map Wire.jstr answers));
              ("count", Wire.jint (List.length answers));
            ])
    in
    k.reads <- k.reads + 1;
    k.reply_bytes <- k.reply_bytes + String.length reply + 1;
    k.answers <- k.answers + Option.value ~default:0 (Loadgen.int_field reply "count")
  in
  let write k (r : Inputs.request) =
    let pg = Option.get (Epoch.snapshot cell) in
    let ops = ok_or_fail "delta parse" (Delta.parse_res (
      match String.split_on_char ' ' r.line with
      | "add-edge" :: rest -> "add " ^ String.concat " " rest
      | "del-edge" :: rest -> "del " ^ String.concat " " rest
      | _ -> fatal "bad update %S" r.line)) in
    ignore (ok_or_fail "wal append" (span t "wal.append" (fun () -> Wal.append_res wal ops)));
    let applied = ok_or_fail "delta apply" (span t "graph.delta_apply" (fun () -> Delta.apply_res pg ops)) in
    let s = applied.Delta.summary in
    span t "rpq.apply_delta" (fun () ->
        Rpq_compile.apply_delta ~obs cache ~old_graph:(Pg.elg pg)
          ~new_graph:(Pg.elg applied.Delta.pg) ~touched_labels:s.Elg.touched_labels
          ~nodes_stable:(s.Elg.added_nodes = 0 && s.Elg.removed_nodes = 0));
    ignore (span t "graph.epoch_publish" (fun () -> Epoch.publish cell applied.Delta.pg));
    ignore (ok_or_fail "checkpoint" (Wal.maybe_checkpoint_res wal applied.Delta.pg));
    k.writes <- k.writes + 1
  in
  let counter name = Option.value ~default:0 (List.assoc_opt name (Metrics.counters metrics)) in
  (* Cumulative counters, differenced around each measured request. *)
  let snap () =
    [|
      Rpq_compile.invalidated_by_label cache; Rpq_compile.retained cache;
      counter "rpq.bitset.push_sweeps"; counter "rpq.bitset.pull_sweeps";
      (Wal.counters wal).Wal.c_fsyncs; counter "wal.bytes";
    |]
  in
  let k = counts () and unmeasured = counts () and measured_ns = ref 0L in
  let one k i (r : Inputs.request) = if r.kind = Inputs.Write then write k r else read k (i + 1) r in
  List.iteri
    (fun i ((r : Inputs.request), measured) ->
      t.request <- i;
      if not measured then begin
        t.on <- false;
        one unmeasured i r
      end
      else begin
        t.on <- spans;
        let before = snap () in
        let t0 = now_ns () in
        span t "request" (fun () -> one k i r);
        measured_ns := Int64.add !measured_ns (Int64.sub (now_ns ()) t0);
        let d = Array.map2 ( - ) (snap ()) before in
        k.invalidated_by_label <- k.invalidated_by_label + d.(0);
        k.retained <- k.retained + d.(1);
        k.push_sweeps <- k.push_sweeps + d.(2);
        k.pull_sweeps <- k.pull_sweeps + d.(3);
        k.wal_fsyncs <- k.wal_fsyncs + d.(4);
        k.wal_bytes <- k.wal_bytes + d.(5)
      end)
    requests;
  t.request <- -1;
  Wal.close wal;
  (k, !measured_ns)

(* --- the session pass ----------------------------------------------------- *)

(* The same stream through [Session.handle_safe], the server's per-request
   entry point; one span per measured request. *)
let session t ~dir ~graph_file (requests : (Inputs.request * bool) list) =
  let wal, _ = ok_or_fail "wal open" (Wal.open_res ~policy:wal_policy (Filename.concat dir "wal-session")) in
  let shared = Session.make_shared ~wal Session.default_config in
  let sess = Session.create shared in
  (match Session.handle_safe sess ~id:0 ("load " ^ graph_file) with
  | Session.Reply l, _ when Loadgen.str_field l "status" = Some "ok" -> ()
  | _ -> fatal "session pass: load failed");
  List.iteri
    (fun i ((r : Inputs.request), measured) ->
      t.request <- i;
      t.on <- measured;
      match span t "session.handle" (fun () -> Session.handle_safe sess ~id:(i + 1) r.line) with
      | Session.Reply l, _ when Loadgen.str_field l "status" = Some "ok" -> ()
      | _ -> fatal "session pass: %S failed" r.line)
    requests;
  t.request <- -1;
  Session.wal_close shared
