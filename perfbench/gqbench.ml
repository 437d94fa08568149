(* End-to-end benchmark of [gqd --listen]; see README.md in this directory.

   gqbench --gqd PATH --workload NAME --seed N --seconds S --trace 0|1
           [--smoke]

   Builds the seeded graph and request streams, starts the real server over
   a unix socket, drives it with a two-connection closed loop, checks every
   reply, and prints a human table followed by one JSON result line.  With
   --trace 1 it then replays the same stream in process with spans around
   each layer and reports the per-layer metrics instead. *)

open Proc

(* Closed-loop clients. *)
let connections = 2

(* Run directories (under tmp/, removed at exit) and span files. *)
let out = "perfbench/out"

(* --- statistics ----------------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [p] in (0, 1]. *)
let pct a p =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median xs = pct (sorted xs) 0.5
let ms_of_ns d = Int64.to_float d /. 1e6

(* --- one untraced run ----------------------------------------------------- *)

type sample = {
  at : float;  (** completion, s into the window *)
  ms : float;
  answers : int;
  write : bool;
}

(* Where a request sent belongs.  [Warm] requests are not measured: the
   warm-ups, and tries of a timed phase dropped for host CPU steal. *)
type phase = Warm | Probe | Window

(* Host CPU steal over the timed phases of a run, % of CPU time ([nan]
   where unknown or, for the probe, where there is none), and how many
   tries of them were dropped for it. *)
type steal = { st_setup : float; st_probe : float; st_window : float; retries : int }

type run = {
  setup_s : float;
  window : sample list;  (** requests completed in the window *)
  writes : float array;  (** update latencies, ms, sorted *)
  attempted : int;
  failed : int;
  rss_mb : float;
  stats : (string * int) list;
  batched : int;  (** reads the server batched during the window *)
  steal : steal;
  log : (phase * Inputs.request) list;  (** every request sent, in send order *)
  probe : bool;
  problems : string list;
}

(* Checks that depend on the whole run: reference answers and durability. *)
type checks = {
  mutable failed : int;
  mutable problems : string list;
  first_pairs : (string, string) Hashtbl.t;  (** analytic: regex -> answers *)
  mutable samples : (string * string * string) list;  (** src, regex, answers *)
  mutable last_lsn : int;
}

let fail ck fmt =
  Printf.ksprintf
    (fun s ->
      ck.failed <- ck.failed + 1;
      if List.length ck.problems < 10 then ck.problems <- s :: ck.problems)
    fmt

(* The interactive reference sample: every 8th read on each connection. *)
let sample_every = 8

let check_reply ck workload (c : Loadgen.conn) (req : Inputs.request) line =
  let verb = List.hd (String.split_on_char ' ' req.line) in
  let status = Loadgen.str_field line "status" in
  if Loadgen.int_field line "id" <> Some c.sent then
    fail ck "conn %d: reply id mismatch for %S" c.idx req.line
  else if Loadgen.str_field line "cmd" <> Some verb then
    fail ck "conn %d: reply to %S carries the wrong verb" c.idx req.line
  else if status <> Some "ok" then
    fail ck "%S: status %s" req.line (Option.value ~default:"?" status)
  else
    match req.kind with
    | Inputs.Write -> (
        match Loadgen.int_field line "wal_lsn" with
        | Some lsn when lsn > ck.last_lsn -> ck.last_lsn <- lsn
        | Some _ -> fail ck "%S: wal_lsn did not advance" req.line
        | None -> fail ck "%S: acknowledged without a wal_lsn" req.line)
    | Inputs.Read_pairs -> (
        match Loadgen.answers_text line with
        | None -> fail ck "%S: no answers" req.line
        | Some text -> (
            match Hashtbl.find_opt ck.first_pairs req.regex with
            | None -> Hashtbl.replace ck.first_pairs req.regex text
            | Some first when first = text -> ()
            | Some _ -> fail ck "%S: answers differ between replies" req.line))
    | Inputs.Read_from -> (
        match Loadgen.answers_text line with
        | None -> fail ck "%S: no answers" req.line
        | Some text ->
            if workload = Inputs.Interactive && c.sent mod sample_every = 0 then
              let src = List.nth (String.split_on_char ' ' req.line) 1 in
              ck.samples <- (src, req.regex, text) :: ck.samples)

let reference_checks ck workload g =
  let same expected text =
    List.sort compare (Loadgen.answers_list text) = expected
  in
  match workload with
  | Inputs.Analytic ->
      Hashtbl.iter
        (fun regex text ->
          if not (same (Inputs.expected_pairs g regex) text) then
            fail ck "rpq %s: answers differ from the reference evaluation" regex)
        ck.first_pairs
  | Inputs.Interactive ->
      List.iter
        (fun (src, regex, text) ->
          if not (same (Inputs.expected_from g regex (Elg.node_id g src)) text) then
            fail ck "rpq-from %s %s: answers differ from the reference evaluation" src regex)
        ck.samples
  | Inputs.Mixed_writes -> ()

(* Recovery of the drained server's WAL must give exactly the generated
   graph plus the edges the update model holds live.  Returns the
   recovered graph when it does. *)
let durability_check ck ~wal_dir g live =
  match Wal.recover_res wal_dir with
  | Error e ->
      fail ck "WAL recovery failed: %s" (Gq_error.to_string e);
      None
  | Ok { Wal.rc_graph = None; _ } ->
      fail ck "WAL recovery found no graph";
      None
  | Ok { Wal.rc_graph = Some pg; _ } ->
      let got = Pg.elg pg in
      let want = List.sort compare (Inputs.edge_list g @ live) in
      if Elg.nb_nodes got <> Elg.nb_nodes g then begin
        fail ck "recovered graph has the wrong node count";
        None
      end
      else if Inputs.edge_list got <> want then begin
        fail ck "recovered graph differs from the acknowledged updates";
        None
      end
      else Some got

let stats_fields =
  [ "hits"; "misses"; "product_hits"; "product_misses"; "invalidated_by_label"; "retained"; "batched" ]

let read_stats server conn =
  let line = Loadgen.ask server conn "stats" in
  let plan = Loadgen.find line "\"plan\":" 0 in
  List.map
    (fun k -> (k, Option.value ~default:(-1) (Loadgen.int_field ~from:(max 0 plan) line k)))
    stats_fields

(* Set-ups per run; the median is reported. *)
let setups = 9

let probe_writes = 96

(* Host CPU steal, as a share of all CPU time, above which figures are
   not trusted, and the tries a timed phase gets to stay under it. *)
let max_steal_pct = 5.0
let max_tries = 3

(* Time one phase with [f] and measure the host CPU steal over it.  With
   [gate], a phase over [max_steal_pct] is dropped and run again, up to
   [max_tries] times in all, while [room ()] says the run still has time.
   Returns every try, in order, each with its steal, and the one kept: the
   last, or, if steal spoiled every try, the least spoiled. *)
let steady ~gate ~room what f =
  let rec go tried =
    let t0 = cpu_ticks () in
    let v = f () in
    let st = steal_pct t0 (cpu_ticks ()) in
    let tried = (v, st) :: tried in
    if gate && st > max_steal_pct && List.length tried < max_tries && room () then begin
      Printf.eprintf "gqbench: host CPU steal was %.1f%% of CPU time over the %s (limit %g%%); again\n%!" st
        what max_steal_pct;
      go tried
    end
    else List.rev tried
  in
  let tried = go [] in
  let worse (_, a) (_, b) = (not (Float.is_nan a)) && ((Float.is_nan b) || a > b) in
  let kept = List.fold_left (fun k t -> if worse k t then t else k) (List.hd tried) tried in
  (kept, tried)

let untraced ~gqd ~root ~smoke ~seconds ~gate ~room workload seed pg graph_file =
  let g = Pg.elg pg in
  let stream = Inputs.stream ~seed ~smoke workload in
  (* Set-up: spawn, readiness, load (with the WAL open and the load
     checkpoint). *)
  let setup () =
    let dir = run_dir ~root "srv" in
    let t0 = now_ns () in
    let server, fd = spawn ~gqd ~dir (server_args ~dir) in
    let c0 = Loadgen.conn 0 fd in
    let reply = Loadgen.ask server c0 ("load " ^ graph_file) in
    let dt = secs_since t0 in
    if Loadgen.str_field reply "status" <> Some "ok" then fatal "load failed: %s" reply;
    (dir, server, c0, dt)
  in
  let timed_setups () =
    List.init (if smoke then 1 else setups) (fun _ ->
        let dir, server, c0, dt = setup () in
        Unix.close c0.Loadgen.fd;
        if not (stop server) then fatal "server did not drain cleanly after set-up";
        rm_rf dir;
        dt)
  in
  let (setup_times, st_setup), setup_tries = steady ~gate ~room "set-ups" timed_setups in
  let setup_s = median setup_times in
  (* The server the workload runs on; its set-up is not timed. *)
  let dir, server, c0, _ = setup () in
  let conns = c0 :: List.init (connections - 1) (fun i -> Loadgen.conn (i + 1) (connect server)) in
  let ck =
    { failed = 0; problems = []; first_pairs = Hashtbl.create 16; samples = []; last_lsn = 0 }
  in
  (* Every request sent, newest first.  A dropped try of a timed phase is
     logged as [Warm]: the server saw it, the figures do not. *)
  let log = ref [] in
  let log_tries phase (kept, tried) =
    List.iter
      (fun (((sent, _), _) as t) ->
        let phase = if t == kept then phase else Warm in
        log := List.rev_map (fun r -> (phase, r)) sent @ !log)
      tried
  in
  (* Warm-up, reads only: caches fill and lazy set-up finishes before
     timing.  With an update probe, one warm-up goes before it and one
     after. *)
  let probe = workload <> Inputs.Mixed_writes in
  let warm =
    match workload with
    | Inputs.Analytic -> 32
    | _ when smoke -> 100
    | Inputs.Interactive -> 1000
    | Inputs.Mixed_writes -> 2000
  in
  let warm_up () =
    let sent = ref 0 in
    Loadgen.run server conns
      ~gen:(fun c ->
        incr sent;
        if !sent > warm then None
        else begin
          let r = stream.Inputs.read c in
          log := (Warm, r) :: !log;
          Some r
        end)
      ~on_reply:(fun c req line _ _ -> check_reply ck workload c req line)
  in
  warm_up ();
  (* Read-only workloads: a short sequential update probe on the warm
     server, so every workload reports update latency and the probe's
     invalidations meet full caches.  A second warm-up refills them. *)
  let probe_once () =
    let sent = ref [] and lat = ref [] in
    Loadgen.run server [ c0 ]
      ~gen:(fun _ ->
        if List.length !sent >= probe_writes then None
        else begin
          let r = Inputs.next_update stream.Inputs.updates in
          sent := r :: !sent;
          Some r
        end)
      ~on_reply:(fun c req line t0 t1 ->
        check_reply ck workload c req line;
        lat := ms_of_ns (Int64.sub t1 t0) :: !lat);
    (List.rev !sent, !lat)
  in
  let probe_writes, st_probe, probe_dropped =
    if not probe then ([], nan, 0)
    else begin
      let (((_, lat), st) as kept), tried = steady ~gate ~room "update probe" probe_once in
      log_tries Probe (kept, tried);
      (* Only replies to reads after the probe are checked against the
         graph the run ends with. *)
      Hashtbl.reset ck.first_pairs;
      ck.samples <- [];
      warm_up ();
      (lat, st, List.length tried - 1)
    end
  in
  (* The measured window.  In [mixed_writes] connection 0 sends only
     updates, back to back, and connection 1 only reads: every update is
     ordered on one connection, and reads always run beside an update in
     progress. *)
  let batched () = List.assoc "batched" (read_stats server c0) in
  let window_once () =
    let b0 = batched () in
    let window = ref [] and sent = ref [] in
    let t_start = now_ns () in
    let deadline = Int64.add t_start (Int64.of_float (seconds *. 1e9)) in
    Loadgen.run server conns
      ~gen:(fun c ->
        if now_ns () >= deadline then None
        else begin
          let r =
            if workload = Inputs.Mixed_writes && c = 0 then Inputs.next_update stream.Inputs.updates
            else stream.Inputs.read c
          in
          sent := r :: !sent;
          Some r
        end)
      ~on_reply:(fun c req line t0 t1 ->
        check_reply ck workload c req line;
        let ms = ms_of_ns (Int64.sub t1 t0) in
        let at = Int64.to_float (Int64.sub t1 t_start) /. 1e9 in
        let write = req.Inputs.kind = Inputs.Write in
        let answers = Option.value ~default:0 (Loadgen.int_field line "count") in
        window := { at; ms; answers; write } :: !window);
    (List.rev !sent, (!window, batched () - b0))
  in
  let (((_, (window, batched)), st_window) as kept), tried = steady ~gate ~room "window" window_once in
  log_tries Window (kept, tried);
  let writes = probe_writes @ List.filter_map (fun s -> if s.write then Some s.ms else None) window in
  let steal =
    let retries = List.length setup_tries - 1 + probe_dropped + List.length tried - 1 in
    { st_setup; st_probe; st_window; retries }
  in
  let stats = read_stats server c0 in
  let rss_mb = peak_rss_mb server in
  List.iter (fun c -> Unix.close c.Loadgen.fd) conns;
  if not (stop server) then fail ck "server did not drain and exit 0 on SIGTERM";
  let live = Inputs.live_edges stream.Inputs.updates in
  (match durability_check ck ~wal_dir:(Filename.concat dir "wal") g live with
  | Some recovered -> reference_checks ck workload recovered
  | None -> ());
  {
    setup_s;
    window;
    writes = sorted writes;
    attempted = List.length !log;
    failed = ck.failed;
    rss_mb;
    stats;
    batched;
    steal;
    log = List.rev !log;
    probe;
    problems = List.rev ck.problems;
  }

let read_ms window = List.filter_map (fun s -> if s.write then None else Some s.ms) window

(* Rates are computed per sub-window of about [sub_window_s] and reported as
   the median over them, so a burst of host contention moves one sub-window
   rather than the result.  Read latency percentiles are taken over the
   whole window: a sub-window of [analytic] or [mixed_writes] holds only
   about a hundred reads, too few for a p99.  Replies that land after the
   deadline (the in-flight tail) are left out. *)
let sub_window_s = 2.0

let end_to_end ~seconds (r : run) =
  let parts = max 1 (int_of_float (Float.round (seconds /. sub_window_s))) in
  let len = seconds /. float_of_int parts in
  let per_part f =
    median
      (List.init parts (fun k ->
           let lo = float_of_int k *. len in
           f (List.filter (fun s -> s.at >= lo && s.at < lo +. len) r.window)))
  in
  let reads = sorted (read_ms (List.filter (fun s -> s.at < seconds) r.window)) in
  [
    ("setup_s", r.setup_s, "s");
    ("throughput_rps", per_part (fun xs -> float_of_int (List.length xs) /. len), "1/s");
    ("read_p50_ms", pct reads 0.5, "ms");
    ("read_p99_ms", pct reads 0.99, "ms");
    ("write_p50_ms", pct r.writes 0.5, "ms");
    ("write_p90_ms", pct r.writes 0.9, "ms");
    ( "answers_per_s",
      per_part (fun xs -> float_of_int (List.fold_left (fun a s -> a + s.answers) 0 xs) /. len),
      "1/s" );
    ("server_rss_mb", r.rss_mb, "MB");
  ]

(* --- traced replay -------------------------------------------------------- *)

(* Window requests replayed per pass, after the warm-ups and the probe:
   enough for a pass to take a couple of seconds.  A third of the
   [mixed_writes] window is updates, each ~100 reads' worth of work. *)
let replay_window ~smoke = function
  | _ when smoke -> 60
  | Inputs.Analytic -> 24
  | Inputs.Interactive -> 1500
  | Inputs.Mixed_writes -> 150

(* Pairs of passes, one without spans and one with, that time
   [trace.overhead_pct].  The order alternates within the pairs, and the
   median drops the pair that carries the first pass's one-off costs
   (heap growth). *)
let overhead_pairs = 3

(* Per-layer metrics that may read 0 on a workload, and why.  Any other
   metric at 0 fails the run, like a metric with no value. *)
let may_be_zero = function
  | Inputs.Interactive ->
      [ ("rpq.push_sweeps", "rpq-from runs the single-source product search, not the bitset kernel");
        ("rpq.pull_sweeps", "rpq-from runs the single-source product search, not the bitset kernel") ]
  | Inputs.Analytic ->
      [ ("rpq.pull_sweeps", "the kernel's push-to-pull switch does not fire on these sparse graphs");
        ( "server.batched_ratio",
          "the two connections cycle half a set apart, so they seldom ask for the same regex at once" ) ]
  | Inputs.Mixed_writes ->
      [ ("rpq.push_sweeps", "rpq-from runs the single-source product search, not the bitset kernel");
        ("rpq.pull_sweeps", "rpq-from runs the single-source product search, not the bitset kernel");
        ("server.batched_ratio", "only one connection reads in the window") ]

let traced ~root ~smoke workload seed graph_file (r : run) =
  (* Measured: the probe and a prefix of the window.  The warm-ups run
     unmeasured, so the caches are as the server had them. *)
  let n = replay_window ~smoke workload in
  let rec prefix seen = function
    | [] -> []
    | (Window, _) :: _ when seen >= n -> []
    | ((phase, _) as x) :: rest -> x :: prefix (if phase = Window then seen + 1 else seen) rest
  in
  let requests = List.map (fun (phase, req) -> (req, phase <> Warm)) (prefix 0 r.log) in
  let pass spans =
    (* Every pass starts from the same parallelism calibration. *)
    Par_policy.reset_calibration ();
    let t = Replay.tracer () in
    let dir = run_dir ~root "replay" in
    let k, ns = Replay.layered t ~spans ~dir ~graph_file requests in
    rm_rf dir;
    (t, k, Int64.to_float ns)
  in
  let pair i =
    let first = i mod 2 = 0 in
    let _, _, a = pass (not first) in
    let t, k, b = pass first in
    let off, on = if first then (a, b) else (b, a) in
    (t, k, 100.0 *. (on -. off) /. off)
  in
  let pairs = List.init overhead_pairs pair in
  (* The span pass of the first pair supplies the spans and counts. *)
  let t, k, _ = List.hd pairs in
  let overhead = median (List.map (fun (_, _, pct) -> pct) pairs) in
  Par_policy.reset_calibration ();
  let ts = Replay.tracer () in
  let dir = run_dir ~root "session" in
  Replay.session ts ~dir ~graph_file requests;
  rm_rf dir;
  let requests = Array.of_list (List.map fst requests) in
  let spans = Replay.with_self t.Replay.spans in
  let self_of name =
    List.filter_map
      (fun ((s : Replay.span), self) -> if s.name = name then Some (Int64.to_float self /. 1e3) else None)
      spans
  in
  let mean_us name =
    match self_of name with
    | [] -> nan
    | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
  in
  let read_handles =
    List.filter_map
      (fun ((s : Replay.span), self) ->
        if s.name = "session.handle" && requests.(s.request).Inputs.kind <> Inputs.Write
        then Some (Int64.to_float self /. 1e3)
        else None)
      (Replay.with_self ts.Replay.spans)
  in
  let handle_p50 = median read_handles in
  let per a b = if b = 0 then nan else float_of_int a /. float_of_int b in
  let window_reads =
    List.length
      (List.filter (fun (phase, (q : Inputs.request)) -> phase = Window && q.kind <> Inputs.Write) r.log)
  in
  let path = Filename.concat out (Printf.sprintf "spans-%s-%d.jsonl" (Inputs.workload_name workload) seed) in
  mkdir_p out;
  Replay.write_jsonl path (t.Replay.spans @ ts.Replay.spans);
  Printf.printf "  spans: %d written to %s\n" (List.length t.Replay.spans + List.length ts.Replay.spans) path;
  [
    ("graph.load_ms", mean_us "graph.load" /. 1e3, "ms");
    ("graph.delta_apply_us", mean_us "graph.delta_apply", "us");
    ("graph.epoch_publish_us", mean_us "graph.epoch_publish", "us");
    ("plan.compile_us", mean_us "plan.compile", "us");
    ("plan.compile_hit_ratio", 1.0 -. per k.compile_misses k.compiles, "ratio");
    ("rpq.product_us", mean_us "rpq.product", "us");
    ("rpq.product_hit_ratio", 1.0 -. per k.product_misses k.products, "ratio");
    ("rpq.product_states", per k.product_states k.products, "count");
    ("rpq.product_edges", per k.product_edges k.products, "count");
    ("rpq.eval_us", mean_us "rpq.eval", "us");
    ("rpq.answers", per k.answers k.reads, "count");
    ("rpq.push_sweeps", per k.push_sweeps k.reads, "count");
    ("rpq.pull_sweeps", per k.pull_sweeps k.reads, "count");
    ("rpq.apply_delta_us", mean_us "rpq.apply_delta", "us");
    ("rpq.invalidated_by_label", float_of_int k.invalidated_by_label, "count");
    ("rpq.retained", float_of_int k.retained, "count");
    ("server.encode_us", mean_us "server.encode", "us");
    ("server.reply_bytes", per k.reply_bytes k.reads, "B");
    ("session.handle_us", handle_p50, "us");
    ("server.residual_us", (median (read_ms r.window) *. 1e3) -. handle_p50, "us");
    ("server.batched_ratio", per r.batched window_reads, "ratio");
    ("wal.append_us", mean_us "wal.append", "us");
    ("wal.fsyncs", 1000.0 *. per k.wal_fsyncs k.writes, "count");
    ("wal.bytes_per_write", per k.wal_bytes k.writes, "B");
    ("wal.checkpoint_us", mean_us "wal.checkpoint", "us");
    ("trace.overhead_pct", overhead, "%");
  ]

(* --- main ----------------------------------------------------------------- *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

(* A timed phase spoiled by host CPU steal is run again only while the run
   can still end within this many seconds. *)
let run_budget_s = 150.0

let () =
  Proc.install ();
  let t_main = now_ns () in
  let gqd = ref "" and workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and smoke = ref false in
  Arg.parse
    [
      ("--gqd", Arg.Set_string gqd, "PATH gqd binary");
      ("--workload", Arg.Set_string workload, "NAME interactive | analytic | mixed_writes");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured window");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--smoke", Arg.Set smoke, " tiny sizes, for the harness's own test");
    ]
    (fun a -> raise (Arg.Bad a))
    "gqbench --gqd PATH --workload NAME --seed N --seconds S --trace 0|1";
  let workload =
    match Inputs.workload_of_string !workload with
    | Some w -> w
    | None ->
        prerr_endline "gqbench: --workload must be interactive, analytic or mixed_writes";
        exit 2
  in
  if not (Sys.file_exists !gqd) then begin
    prerr_endline "gqbench: --gqd must name the gqd binary";
    exit 2
  end;
  (* Another try fits if it and the rest of the run (at most the warm-ups,
     a window, the drain and the checks) take no more than [seconds] +
     30 s. *)
  let room () = secs_since t_main +. !seconds +. 30.0 <= run_budget_s in
  try
    let root = Filename.concat out "tmp" in
    let dir = run_dir ~root "inputs" in
    let pg = Inputs.graph ~seed:!seed (Inputs.sizes ~smoke:!smoke workload) in
    let graph_file = Filename.concat (Sys.getcwd ()) (Filename.concat dir "graph.txt") in
    Out_channel.with_open_bin graph_file (fun oc -> output_string oc (Graph_io.to_string pg));
    (* The steal gate guards the end-to-end figures; a traced run reports
       per-layer ones, from a replay of the window, so it only shows the
       steal, as does the smoke test. *)
    let gate = !trace = 0 && not !smoke in
    let r =
      untraced ~gqd:!gqd ~root ~smoke:!smoke ~seconds:!seconds ~gate ~room workload !seed pg graph_file
    in
    let e2e = end_to_end ~seconds:!seconds r in
    let show (name, v, unit) = Printf.printf "  %-26s %14.4f %s\n" name v unit in
    Printf.printf "gqbench %s seed=%d window=%gs workers=%d fsync=%s connections=%d (closed loop)\n"
      (Inputs.workload_name workload) !seed !seconds workers fsync connections;
    List.iter show e2e;
    Printf.printf "  %-26s %14.6f ratio  (%d failed / %d attempted)\n" "error_rate"
      (float_of_int r.failed /. float_of_int (max 1 r.attempted)) r.failed r.attempted;
    Printf.printf "  samples: %d reads, %d writes%s\n" (List.length (read_ms r.window)) (Array.length r.writes)
      (if r.probe then " (update probe after the warm-up)" else "");
    let st = r.steal in
    Printf.printf
      "  host CPU steal: set-ups %.2f%%, probe %.2f%%, window %.2f%% (limit %g%%; %d tries dropped)\n"
      st.st_setup st.st_probe st.st_window max_steal_pct st.retries;
    if List.exists (fun x -> x > max_steal_pct) [ st.st_setup; st.st_probe; st.st_window ] then begin
      let msg =
        Printf.sprintf
          "WARNING: host CPU steal above %g%% over a timed phase%s; these figures are not \
           trusted, rerun when the host is quieter"
          max_steal_pct (if gate then " in every try" else "")
      in
      Printf.printf "  %s\n" msg;
      Printf.eprintf "gqbench: %s\n%!" msg
    end;
    Printf.printf "  server stats: %s\n"
      (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.stats));
    List.iter (Printf.eprintf "gqbench: FAILED: %s\n%!") r.problems;
    let metrics, allowed_zero =
      if !trace = 1 then begin
        let ticks0 = cpu_ticks () in
        let layer = traced ~root ~smoke:!smoke workload !seed graph_file r in
        let steal = steal_pct ticks0 (cpu_ticks ()) in
        Printf.printf "per-layer (traced replay; host CPU steal over it %.2f%%):\n" steal;
        if steal > max_steal_pct then
          Printf.eprintf "gqbench: warning: host CPU steal %.1f%% over the traced replay\n%!" steal;
        List.iter show layer;
        (layer, may_be_zero workload)
      end
      else (e2e, [])
    in
    (* A metric the run could not compute, or one that reads 0 where it
       should not, is a harness failure. *)
    let bad =
      List.filter
        (fun (name, v, _) -> (not (Float.is_finite v)) || (v = 0.0 && not (List.mem_assoc name allowed_zero)))
        metrics
    in
    List.iter
      (fun (name, v, _) ->
        if Float.is_finite v then Printf.eprintf "gqbench: FAILED: %s is 0\n%!" name
        else Printf.eprintf "gqbench: FAILED: no value for %s\n%!" name)
      bad;
    List.iter
      (fun (name, v, _) ->
        match List.assoc_opt name allowed_zero with
        | Some why when v = 0.0 -> Printf.printf "  %s is 0 on %s by design: %s\n" name
              (Inputs.workload_name workload) why
        | _ -> ())
      metrics;
    let correct = r.failed = 0 && bad = [] in
    Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct
      (max 1 r.attempted) r.failed
      (String.concat ","
         (List.map
            (fun (name, v, unit) -> Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (json_num v) unit)
            metrics));
    exit (if correct then 0 else 1)
  with
  | Fatal msg ->
      Printf.eprintf "gqbench: error: %s\n%!" msg;
      exit 1
