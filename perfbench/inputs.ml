(* Seeded inputs: the graph, the regex universe, the per-connection request
   streams and the update model.  Everything here is a pure function of the
   seed, so two runs with the same seed send the server the same requests
   (per connection, in the same order). *)

type workload = Interactive | Analytic | Mixed_writes

let workload_of_string = function
  | "interactive" -> Some Interactive
  | "analytic" -> Some Analytic
  | "mixed_writes" -> Some Mixed_writes
  | _ -> None

let workload_name = function
  | Interactive -> "interactive"
  | Analytic -> "analytic"
  | Mixed_writes -> "mixed_writes"

let labels = [| "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" |]

(* Graph sizes.  The per-label out-degree is edges / (nodes * 8) = 0.3, so
   single-label stars (0.3) and two-label stars (0.6) stay well below the
   critical degree 1: reach sets are small and light-tailed, and their size
   distribution is the same for every seed, which keeps answer counts, and
   so run-to-run spread, low. *)
type sizes = { nodes : int; edges : int }

let sizes ~smoke = function
  | _ when smoke -> { nodes = 400; edges = 960 }
  | Interactive | Mixed_writes -> { nodes = 20_000; edges = 48_000 }
  | Analytic -> { nodes = 16_000; edges = 38_400 }

let graph ~seed s =
  Generators.random_pg ~seed ~nodes:s.nodes ~edges:s.edges
    ~labels:(Array.to_list labels) ~prop:"w" ~max_value:9

(* --- regex universe ------------------------------------------------------- *)

(* Shape templates from the SPARQL-log study behind bench E10, most popular
   first: label stars, short concatenations, disjunctions.  Each takes
   [arity] distinct labels.  Wildcard stars ([_*.a]) are left out: from any
   source they reach most of the graph, so one such request costs as much
   as hundreds of the others and would dominate every metric. *)
let shapes : (int * (string array -> string)) list =
  [
    (1, fun l -> l.(0) ^ "*");
    (2, fun l -> l.(0) ^ "." ^ l.(1) ^ "*");
    (2, fun l -> "(" ^ l.(0) ^ "|" ^ l.(1) ^ ")*");
    (3, fun l -> l.(0) ^ ".(" ^ l.(1) ^ "|" ^ l.(2) ^ ")");
    (1, fun l -> l.(0) ^ "+");
    (2, fun l -> l.(0) ^ "*." ^ l.(1));
    (2, fun l -> l.(0) ^ "." ^ l.(1));
    (3, fun l -> l.(0) ^ "." ^ l.(1) ^ "." ^ l.(2));
    (2, fun l -> "(" ^ l.(0) ^ "." ^ l.(1) ^ ")+");
  ]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* All ordered tuples of [k] distinct labels. *)
let tuples k =
  let n = Array.length labels in
  let rec go k used =
    if k = 0 then [ [] ]
    else
      List.concat_map
        (fun i ->
          if List.mem i used then []
          else List.map (fun rest -> labels.(i) :: rest) (go (k - 1) (i :: used)))
        (List.init n Fun.id)
  in
  List.map Array.of_list (go k [])

(* The regex universe in popularity-rank order: round [r] takes the [r]-th
   instantiation of every shape that has one left, in shape order.  The seed
   only permutes which labels fill each shape, so the shape at every rank is
   the same for every seed. *)
let universe ~seed =
  let st = Random.State.make [| seed; 17 |] in
  let insts =
    List.map
      (fun (k, f) -> Array.map f (shuffle st (Array.of_list (tuples k))))
      shapes
  in
  let rounds = List.fold_left (fun m a -> max m (Array.length a)) 0 insts in
  Array.of_list
    (List.concat
       (List.init rounds (fun r ->
            List.filter_map
              (fun a -> if r < Array.length a then Some a.(r) else None)
              insts)))

(* The analytic set: the 16 most popular regexes. *)
let analytic_set ~seed ~smoke = Array.sub (universe ~seed) 0 (if smoke then 6 else 16)

(* --- Zipf sampling -------------------------------------------------------- *)

type zipf = float array (* cumulative, normalised *)

let zipf n s : zipf =
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. x;
      !acc /. total)
    w

let draw (z : zipf) st =
  let u = Random.State.float st 1.0 in
  let lo = ref 0 and hi = ref (Array.length z - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

(* Popularity skew: regex ranks follow Zipf(1.3), so a hot head fits the
   64-entry product cache while the tail of several hundred regexes keeps
   missing it; sources follow a milder Zipf(0.6) over a seeded node order. *)
let regex_skew = 1.3
let source_skew = 0.6

(* --- requests ------------------------------------------------------------- *)

type kind = Read_from | Read_pairs | Write

type request = { kind : kind; line : string; regex : string }

(* Live-edge window of the update model: add fresh edges until [window] are
   live, then alternate deleting the oldest and adding a new one, so the
   graph size stays within [edges, edges + window].  Added edges take the
   labels in a seeded round-robin order, so every label is touched (and its
   cached products invalidated) equally often in every run. *)
type updates = {
  ust : Random.State.t;
  order : string array;
  live : (string * string * string * string) Queue.t;
  mutable fresh : int;
  unodes : int;
}

let update_window = 4

let updates ~seed ~nodes =
  let ust = Random.State.make [| seed; 2000 |] in
  { ust; order = shuffle ust (Array.copy labels); live = Queue.create (); fresh = 0; unodes = nodes }

let next_update u =
  if Queue.length u.live < update_window then begin
    let name = Printf.sprintf "bx%d" u.fresh in
    let lbl = u.order.(u.fresh mod Array.length u.order) in
    u.fresh <- u.fresh + 1;
    let node () = Printf.sprintf "v%d" (Random.State.int u.ust u.unodes) in
    let src = node () in
    let tgt = node () in
    Queue.push (name, src, lbl, tgt) u.live;
    { kind = Write; regex = lbl; line = Printf.sprintf "add-edge %s %s %s %s" name src lbl tgt }
  end
  else
    let name, _, lbl, _ = Queue.pop u.live in
    { kind = Write; regex = lbl; line = "del-edge " ^ name }

(* The edges the update model says are live, for the durability check. *)
let live_edges u = List.of_seq (Queue.to_seq u.live)

(* A request stream: [read conn] is connection [conn]'s next read.  Each
   connection draws from its own generator, so its sequence does not depend
   on how the closed loop interleaves the connections.  Updates come from
   [updates]; when to send one is the load generator's schedule. *)
type stream = { read : int -> request; updates : updates }

let stream ~seed ~smoke workload =
  let s = sizes ~smoke workload in
  let updates = updates ~seed ~nodes:s.nodes in
  match workload with
  | Analytic ->
      let set = analytic_set ~seed ~smoke in
      let pos = [| 0; Array.length set / 2 |] in
      let read c =
        let r = set.(pos.(c) mod Array.length set) in
        pos.(c) <- pos.(c) + 1;
        { kind = Read_pairs; regex = r; line = "rpq " ^ r }
      in
      { read; updates }
  | Interactive | Mixed_writes ->
      let u = universe ~seed in
      let zr = zipf (Array.length u) regex_skew in
      let zs = zipf s.nodes source_skew in
      let order = shuffle (Random.State.make [| seed; 29 |]) (Array.init s.nodes Fun.id) in
      let sts = Array.init 2 (fun c -> Random.State.make [| seed; 1000 + c |]) in
      let read c =
        let st = sts.(c) in
        let r = u.(draw zr st) in
        let src = order.(draw zs st) in
        { kind = Read_from; regex = r; line = Printf.sprintf "rpq-from v%d %s" src r }
      in
      { read; updates }

(* --- reference evaluation ------------------------------------------------- *)

(* An oracle independent of the engine's product graph, caches and bitset
   kernel: breadth-first search over (node, automaton state) pairs built on
   the fly from the Glushkov automaton, one source at a time. *)
let reach g nfa src =
  let nq = nfa.Nfa.nb_states in
  let seen = Bytes.make (Elg.nb_nodes g * nq) '\000' in
  let hit = Bytes.make (Elg.nb_nodes g) '\000' in
  let out = ref [] in
  let queue = Queue.create () in
  let visit v q =
    let k = (v * nq) + q in
    if Bytes.get seen k = '\000' then begin
      Bytes.set seen k '\001';
      if nfa.Nfa.finals.(q) && Bytes.get hit v = '\000' then begin
        Bytes.set hit v '\001';
        out := v :: !out
      end;
      Queue.push (v, q) queue
    end
  in
  List.iter (visit src) nfa.Nfa.initials;
  while not (Queue.is_empty queue) do
    let v, q = Queue.pop queue in
    List.iter
      (fun (sym, q') ->
        let lo, hi = Elg.out_span g v in
        for i = lo to hi - 1 do
          let e = Elg.csr_out_edge g i in
          if Sym.matches sym (Elg.label g e) then visit (Elg.tgt g e) q'
        done)
      nfa.Nfa.delta.(q)
  done;
  !out

let nfa_of regex = Nfa.of_regex (Rpq_parse.parse regex)

(* Sorted display strings, as the server renders them. *)
let expected_from g regex src =
  List.sort compare (List.map (Elg.node_name g) (reach g (nfa_of regex) src))

let expected_pairs g regex =
  let nfa = nfa_of regex in
  let acc = ref [] in
  for u = Elg.nb_nodes g - 1 downto 0 do
    List.iter
      (fun v -> acc := (Elg.node_name g u ^ " -> " ^ Elg.node_name g v) :: !acc)
      (reach g nfa u)
  done;
  List.sort compare !acc

(* Every edge as (name, src, label, tgt), sorted: the durability check
   compares recovered and predicted graphs in this form. *)
let edge_list g =
  List.sort compare
    (List.init (Elg.nb_edges g) (fun e ->
         ( Elg.edge_name g e,
           Elg.node_name g (Elg.src g e),
           Elg.label g e,
           Elg.node_name g (Elg.tgt g e) )))
