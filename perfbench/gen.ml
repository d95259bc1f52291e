(* Load generator and engine probes for the `orion serve --wal`
   benchmark.  run.py owns the server process and calls this program:

     setup   --workload W --seed S --db PATH
         Write the seeded store the server loads: the schema and the
         workload's cold Assemblies, which the load never touches.

     inputs  --workload W --seed S --conn NAME --count N
         Print the first N inputs connection NAME would send (writer0,
         writer1, reader, readback).  The load draws its inputs from the
         same functions.

     load    --workload W --seed S --socket ADDR --wal-file PATH
             --server-pid PID --seconds T --trace 0|1 --setup-only 0|1
             --out FILE --expect FILE
         Build the workload's composites over the wire, run the write
         phase, the read-back phase and the gate's live checks, and write
         the raw figures as JSON to FILE and the acknowledged component
         sets to the --expect file.  With --setup-only 1 it stops after
         the build.

     verify  --db PATH --expect FILE
         Open a recovered store and require every root's components to
         be exactly the acknowledged set.

     engine  --seed S --db PATH --wal PATH --dir DIR --out FILE
         Time calls into the engine's public functions on inputs built
         from the seed, and replay the given crashed store and log.

   Every time is CLOCK_MONOTONIC, the clock run.py reads too.  Nothing
   here reaches inside the server: its counters come from the Stats
   request and its resource use from /proc/PID. *)

module Client = Orion_client
module Message = Orion_protocol.Message
module Addr = Orion_protocol.Addr
module Oid = Orion_core.Oid
module Value = Orion_core.Value
module Database = Orion_core.Database
module Object_manager = Orion_core.Object_manager
module Traversal = Orion_core.Traversal
module Codec = Orion_core.Codec
module Persist = Orion_core.Persist
module Store = Orion_storage.Store
module Obs = Orion_obs.Metrics
module Eval = Orion_dsl.Eval
module Part_gen = Orion_workload.Part_gen
module Lock_table = Orion_locking.Lock_table
module Protocol = Orion_locking.Protocol
module Wal = Orion_wal.Wal
module Recovery = Orion_wal.Recovery
module Version_store = Orion_mvcc.Version_store

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Workload shapes -------------------------------------------------------- *)

type workload = Wal_growth | Hot_pair | Snapshot_read

let workload_of_string = function
  | "wal-growth" -> Wal_growth
  | "hot-pair" -> Hot_pair
  | "snapshot-read" -> Snapshot_read
  | w -> failwith ("unknown workload " ^ w)

(* Parts per Assembly; every update makes one Part and deletes the
   oldest, so a composite keeps its size for the whole run. *)
let fanout = 8
let roots_per_writer = 4
let hot_roots = 4

(* The snapshot-read forest: depth 3, fanout 4, 84 components a root. *)
let forest_roots = 16
let forest_config seed = { Part_gen.default with depth = 3; fanout = 4; exclusive = true; seed }

(* The cold store: wal-growth and hot-pair fit the server's 64-frame
   buffer pool; snapshot-read's is about 18 times larger. *)
let cold_assemblies = function Snapshot_read -> 8000 | Wal_growth | Hot_pair -> 400

(* wal-growth writes until the log passes this many bytes. *)
let log_target = 2 * 1024 * 1024

(* hot-pair commits per trial: about 0.5 MB of log. *)
let hot_pair_commits = 1500

(* snapshot-read's writer is an open loop at this rate. *)
let writer_rate = 100.

let writers = function Wal_growth | Hot_pair -> 2 | Snapshot_read -> 1

let schema_forms =
  {|
(make-class 'Part :attributes ((Name :domain String)))
(make-class 'Assembly :attributes (
  (Parts :domain (set-of Part) :composite true :exclusive true :dependent true)))
|}

let rng seed salt = Random.State.make [| seed; salt |]

(* The forest's shape, from Part_gen on the seed.  The wire build and
   [inputs] both walk it. *)
type tree = Node of tree list

let forest_shape seed =
  let forest = Part_gen.generate ~roots:forest_roots (forest_config seed) in
  let db = forest.Part_gen.db in
  let rec tree o = Node (List.map tree (Traversal.children_of db o)) in
  List.map tree forest.Part_gen.roots

let is_leaf (Node cs) = cs = []

(* A ring: a parent whose component set is updated make-then-delete. *)
let rec rings_of_tree (Node cs as t) =
  if cs <> [] && List.for_all is_leaf cs then [ t ] else List.concat_map rings_of_tree cs

(* Inputs ----------------------------------------------------------------- *)

(* What one request of a load connection touches: an update of the
   given rings (their roots locked in this order), or a snapshot read of
   one root. *)
type input = Update of int list | Read of int

type sizes = { rings : int; roots : int }

let sizes workload seed =
  match workload with
  | Wal_growth -> { rings = 2 * roots_per_writer; roots = 2 * roots_per_writer }
  | Hot_pair -> { rings = hot_roots; roots = hot_roots }
  | Snapshot_read ->
      let shape = forest_shape seed in
      { rings = List.length (List.concat_map rings_of_tree shape); roots = List.length shape }

type conn = Writer of int | Reader | Readback

let conn_salt = function Writer i -> 100 + i | Reader -> 200 | Readback -> 300

let conn_of_string = function
  | "writer0" -> Writer 0
  | "writer1" -> Writer 1
  | "reader" -> Reader
  | "readback" -> Readback
  | c -> failwith ("unknown connection " ^ c)

let next_input workload sizes conn r =
  match (conn, workload) with
  | (Reader | Readback), _ -> Read (Random.State.int r sizes.roots)
  | Writer i, Wal_growth -> Update [ (i * roots_per_writer) + Random.State.int r roots_per_writer ]
  | Writer _, Hot_pair ->
      let a = Random.State.int r hot_roots in
      Update [ a; (a + 1 + Random.State.int r (hot_roots - 1)) mod hot_roots ]
  | Writer _, Snapshot_read -> Update [ Random.State.int r sizes.rings ]

(* The attribute value of the object an update makes. *)
let make_attrs workload r =
  match workload with
  | Snapshot_read -> Printf.sprintf ":Tag %d" (Random.State.int r 1_000_000)
  | Wal_growth | Hot_pair -> Printf.sprintf ":Name \"u%d\"" (Random.State.int r 1_000_000_000)

let print_inputs ~workload ~seed ~conn ~count =
  let sizes = sizes workload seed in
  let r = rng seed (conn_salt conn) in
  for _ = 1 to count do
    match next_input workload sizes conn r with
    | Read i -> Printf.printf "read %d\n" i
    | Update rings ->
        Printf.printf "update %s %s\n"
          (String.concat "," (List.map string_of_int rings))
          (String.concat " " (List.map (fun _ -> make_attrs workload r) rings))
  done

(* setup ------------------------------------------------------------------ *)

let setup ~workload ~seed ~db_path =
  let env = Eval.create_env () in
  ignore (Eval.eval_program env schema_forms : Eval.v list);
  let db = Eval.database env in
  (* The forest's node class, so no DDL runs over the wire: DDL makes
     the server checkpoint and truncate its log. *)
  ignore (Part_gen.generate ~db ~roots:0 (forest_config seed) : Part_gen.forest);
  let r = rng seed 1 in
  for i = 1 to cold_assemblies workload do
    let root = Object_manager.create db ~cls:"Assembly" () in
    for j = 1 to fanout do
      ignore
        (Object_manager.create db ~cls:"Part"
           ~parents:[ (root, "Parts") ]
           ~attrs:[ ("Name", Value.Str (Printf.sprintf "cold-%d-%d-%d" i j (Random.State.bits r))) ]
           ()
          : Oid.t)
    done
  done;
  Persist.save db;
  Store.save_file (Database.store db) db_path

(* The world built over the wire ------------------------------------------ *)

(* A ring holds [live] components named [prefix ^ slot] over [live + 1]
   slots.  Update k makes slot (k + live) mod (live + 1) and deletes slot
   k mod (live + 1), the oldest. *)
type ring = {
  parent_var : string;
  prefix : string;
  cls : string;
  attr : string;
  slots : Oid.t option array;
  mutable k : int;
  root : Oid.t;  (** the composite root whose lock covers the ring *)
}

type world = {
  world_rings : ring array;
  world_roots : Oid.t array;
  fixed : Oid.t list array;  (** per root: components no update touches *)
}

let ring_update ring ~attrs =
  let size = Array.length ring.slots in
  let fresh = (ring.k + size - 1) mod size and oldest = ring.k mod size in
  ( Printf.sprintf "(setq %s%d (make %s :parent ((%s %s)) %s)) (delete %s%d) %s%d" ring.prefix fresh
      ring.cls ring.parent_var ring.attr attrs ring.prefix oldest ring.prefix fresh,
    fresh,
    oldest )

let ring_members ring = Array.to_list ring.slots |> List.filter_map Fun.id

let expected_components world i =
  let root = world.world_roots.(i) in
  world.fixed.(i)
  @ List.concat_map
      (fun r -> if Oid.equal r.root root then ring_members r else [])
      (Array.to_list world.world_rings)

let obj_of = function
  | Message.Obj oid -> oid
  | v -> failwith (Format.asprintf "expected an object, got %a" Message.pp_v v)

let eval_obj c form = obj_of (Client.eval c form)

(* [n] Assembly roots of [fanout] named Parts, one transaction a root. *)
let build_assemblies c ~n ~seed =
  let r = rng seed 3 in
  let rings =
    Array.init n (fun i ->
        ignore (Client.begin_tx c : int);
        let root = eval_obj c (Printf.sprintf "(setq r%d (make Assembly))" i) in
        let slots = Array.make (fanout + 1) None in
        for s = 0 to fanout - 1 do
          slots.(s) <-
            Some
              (eval_obj c
                 (Printf.sprintf "(setq p%d_%d (make Part :parent ((r%d Parts)) :Name \"seed-%d\"))" i
                    s i (Random.State.bits r)))
        done;
        Client.commit c;
        {
          parent_var = Printf.sprintf "r%d" i;
          prefix = Printf.sprintf "p%d_" i;
          cls = "Part";
          attr = "Parts";
          slots;
          k = 0;
          root;
        })
  in
  {
    world_rings = rings;
    world_roots = Array.map (fun r -> r.root) rings;
    fixed = Array.map (fun _ -> []) rings;
  }

(* The seeded forest, one transaction a root, every node named. *)
let build_forest c ~seed =
  let tags = rng seed 2 in
  let counter = ref 0 in
  let fresh_var () =
    incr counter;
    Printf.sprintf "n%d" !counter
  in
  let make ?parent var =
    let parent = match parent with None -> "" | Some p -> Printf.sprintf " :parent ((%s Subs))" p in
    eval_obj c
      (Printf.sprintf "(setq %s (make PhysNode%s :Tag %d))" var parent (Random.State.int tags 1_000_000))
  in
  let rings = ref [] and roots = ref [] and fixed = ref [] in
  List.iter
    (fun (Node children) ->
      ignore (Client.begin_tx c : int);
      let root_var = fresh_var () in
      let root = make root_var in
      let inner = ref [] in
      let rec walk parent_var children =
        List.iter
          (fun (Node grand) ->
            let var = fresh_var () in
            if grand = [] then inner := make ~parent:parent_var var :: !inner
            else if List.for_all is_leaf grand then begin
              inner := make ~parent:parent_var var :: !inner;
              let live = List.length grand in
              let prefix = var ^ "_" in
              let slots = Array.make (live + 1) None in
              List.iteri
                (fun s _ -> slots.(s) <- Some (make ~parent:var (Printf.sprintf "%s%d" prefix s)))
                grand;
              rings :=
                { parent_var = var; prefix; cls = "PhysNode"; attr = "Subs"; slots; k = 0; root }
                :: !rings
            end
            else begin
              inner := make ~parent:parent_var var :: !inner;
              walk var grand
            end)
          children
      in
      walk root_var children;
      Client.commit c;
      roots := root :: !roots;
      fixed := !inner :: !fixed)
    (forest_shape seed);
  {
    world_rings = Array.of_list (List.rev !rings);
    world_roots = Array.of_list (List.rev !roots);
    fixed = Array.of_list (List.rev !fixed);
  }

let build_world c workload ~seed =
  match workload with
  | Wal_growth -> build_assemblies c ~n:(2 * roots_per_writer) ~seed
  | Hot_pair -> build_assemblies c ~n:hot_roots ~seed
  | Snapshot_read -> build_forest c ~seed

(* Per-connection records --------------------------------------------------- *)

(* Client spans are recorded only in traced periods of a --trace 1 run.
   Those alternate with untraced periods of [trace_period] seconds, so
   one run measures the tracing's own cost. *)
let trace_period = 0.2

type log = {
  mutable tx_ms : float list;  (** due or begin-sent -> commit acked, retries included *)
  mutable done_at : float list;  (** commit ack times *)
  mutable committed : int;
  mutable attempted : int;
  mutable failed : int;
  mutable retries : int;
  mutable late_ms : float list;  (** open loop: send time - due time *)
  mutable read_ms : float list;
  mutable reads : int;
  mutable read_failed : int;
  (* Traced periods only. *)
  mutable traced_tx : int;
  mutable traced_reads : int;
  mutable tx_ms_traced : float list;
  mutable begin_us : float list;
  mutable lock_us : float list;
  mutable eval_us : float list;
  mutable commit_us : float list;
  mutable snapshot_us : float list;
  mutable components_us : float list;
  mutable span_s : float;  (** summed spans inside traced transactions *)
  mutable tx_s : float;  (** summed traced transaction times *)
  mutable untraced_tx : int;
  mutable untraced_reads : int;
  mutable chains_peak : int;
  mutable errors : string list;
}

let new_log () =
  {
    tx_ms = [];
    done_at = [];
    committed = 0;
    attempted = 0;
    failed = 0;
    retries = 0;
    late_ms = [];
    read_ms = [];
    reads = 0;
    read_failed = 0;
    traced_tx = 0;
    traced_reads = 0;
    tx_ms_traced = [];
    begin_us = [];
    lock_us = [];
    eval_us = [];
    commit_us = [];
    snapshot_us = [];
    components_us = [];
    span_s = 0.;
    tx_s = 0.;
    untraced_tx = 0;
    untraced_reads = 0;
    chains_peak = 0;
    errors = [];
  }

let error log msg = if List.length log.errors < 20 then log.errors <- msg :: log.errors

(* [span traced log push f] runs [f], timing it when [traced]. *)
let span traced log push f =
  if not traced then f ()
  else begin
    let t0 = now () in
    let r = f () in
    let dt = now () -. t0 in
    log.span_s <- log.span_s +. dt;
    push (dt *. 1e6);
    r
  end

let retry_budget = 100

(* Each load connection runs in a domain of its own.  hot-pair's writers
   share rings; the server's composite locks order their updates, and
   this mutex makes each one visible to the other domain. *)
let rings_mu = Mutex.create ()

exception Lost of string

(* One transaction updating [rings]: begin, lock each ring's root in
   order, one eval a ring, commit.  Deadlock victims and lock timeouts
   (raised only while a lock request is parked) retry from begin.
   [start] is when the transaction was due. *)
let transaction ~traced log c ~start ~rings ~attrs =
  let roots =
    List.fold_left (fun acc r -> if List.exists (Oid.equal r.root) acc then acc else acc @ [ r.root ]) [] rings
  in
  let rec attempt budget =
    span traced log (fun d -> log.begin_us <- d :: log.begin_us) (fun () ->
        ignore (Client.begin_tx c : int));
    match
      List.iter
        (fun root ->
          span traced log (fun d -> log.lock_us <- d :: log.lock_us) (fun () ->
              Client.lock_composite c ~root Message.Update))
        roots
    with
    | () -> true
    | exception Client.Error ((Message.Conflict | Message.Timeout), _) ->
        ignore (Client.notices c : Message.push list);
        if budget > 0 then begin
          log.retries <- log.retries + 1;
          attempt (budget - 1)
        end
        else false
  in
  let sent = now () in
  log.attempted <- log.attempted + 1;
  if not (attempt retry_budget) then log.failed <- log.failed + 1
  else
    match
      let made =
        List.map2
          (fun ring attrs ->
            let form, fresh, oldest = Mutex.protect rings_mu (fun () -> ring_update ring ~attrs) in
            let oid =
              span traced log (fun d -> log.eval_us <- d :: log.eval_us) (fun () -> eval_obj c form)
            in
            (ring, fresh, oldest, oid))
          rings attrs
      in
      (* The roots stay locked until the commit is acknowledged, so the
         rings move before the commit is sent: a connection granted the
         lock next must see the new state. *)
      Mutex.protect rings_mu (fun () ->
          List.iter
            (fun (ring, fresh, oldest, oid) ->
              ring.slots.(fresh) <- Some oid;
              ring.slots.(oldest) <- None;
              ring.k <- ring.k + 1)
            made);
      span traced log (fun d -> log.commit_us <- d :: log.commit_us) (fun () -> Client.commit c)
    with
    | () ->
        let t = now () in
        let dt = t -. start in
        log.committed <- log.committed + 1;
        log.done_at <- t :: log.done_at;
        log.tx_ms <- (dt *. 1e3) :: log.tx_ms;
        if traced then begin
          log.traced_tx <- log.traced_tx + 1;
          log.tx_ms_traced <- (dt *. 1e3) :: log.tx_ms_traced;
          log.tx_s <- log.tx_s +. (t -. sent)
        end
        else log.untraced_tx <- log.untraced_tx + 1
    | exception e -> raise (Lost (Printexc.to_string e))

(* One snapshot read of a composite: begin-snapshot, components-of,
   end-snapshot.  Visibility is all-or-none and every update keeps the
   composite's size, so the count never moves. *)
let snapshot_read ~traced log c root ~expect =
  let t0 = now () in
  let got =
    match
      span traced log (fun d -> log.snapshot_us <- d :: log.snapshot_us) (fun () ->
          ignore (Client.begin_snapshot c : int));
      let comps =
        span traced log (fun d -> log.components_us <- d :: log.components_us) (fun () ->
            Client.components_of c root)
      in
      span traced log (fun d -> log.snapshot_us <- d :: log.snapshot_us) (fun () -> Client.end_snapshot c);
      comps
    with
    | comps -> Some comps
    | exception Client.Error (code, msg) ->
        error log (Printf.sprintf "snapshot read: %s %s" (Message.err_code_to_string code) msg);
        None
  in
  let dt = now () -. t0 in
  log.reads <- log.reads + 1;
  log.read_ms <- (dt *. 1e3) :: log.read_ms;
  if traced then begin
    log.traced_reads <- log.traced_reads + 1;
    log.tx_s <- log.tx_s +. dt
  end
  else log.untraced_reads <- log.untraced_reads + 1;
  match got with
  | None ->
      log.read_failed <- log.read_failed + 1;
      None
  | Some comps ->
      let n = List.length comps in
      if n <> expect then begin
        log.read_failed <- log.read_failed + 1;
        error log
          (Printf.sprintf "snapshot of %s saw %d components, expected %d" (Oid.to_string root) n expect)
      end;
      Some comps

(* /proc of the server ---------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let kv_lines text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match String.index_opt line ':' with
         | None -> None
         | Some i ->
             let k = String.sub line 0 i in
             let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
             let v = match String.index_opt v ' ' with Some j -> String.sub v 0 j | None -> v in
             Option.map (fun v -> (k, v)) (int_of_string_opt v))

type proc = { io : (string * int) list; cpu_ms : float; hwm_kb : int }

(* Summed se.sum_exec_runtime (ms) of the server's threads. *)
let sched_cpu_ms dir =
  Array.fold_left
    (fun acc task ->
      let text = try read_file (Printf.sprintf "%s/task/%s/sched" dir task) with Sys_error _ -> "" in
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ k; v ] when String.trim k = "se.sum_exec_runtime" -> float_of_string_opt (String.trim v)
             | _ -> None)
      |> Option.fold ~none:acc ~some:(( +. ) acc))
    0.
    (try Sys.readdir (dir ^ "/task") with Sys_error _ -> [||])

let read_proc pid =
  let dir = Printf.sprintf "/proc/%d" pid in
  let status = kv_lines (read_file (dir ^ "/status")) in
  {
    io = kv_lines (read_file (dir ^ "/io"));
    cpu_ms = sched_cpu_ms dir;
    hwm_kb = Option.value (List.assoc_opt "VmHWM" status) ~default:0;
  }

(* JSON out --------------------------------------------------------------- *)

type json = I of int | F of float | S of string | L of json list | O of (string * json) list

let rec write_json buf = function
  | I n -> Buffer.add_string buf (string_of_int n)
  | F f -> Buffer.add_string buf (if Float.is_finite f then Printf.sprintf "%.17g" f else "null")
  | S s ->
      Buffer.add_char buf '"';
      String.iter
        (function
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char buf c)
        s;
      Buffer.add_char buf '"'
  | L xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write_json buf x)
        xs;
      Buffer.add_char buf ']'
  | O kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          write_json buf (S k);
          Buffer.add_char buf ':';
          write_json buf v)
        kvs;
      Buffer.add_char buf '}'

let save_json path j =
  let buf = Buffer.create 65536 in
  write_json buf j;
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc buf)

let floats xs = L (List.rev_map (fun x -> F x) xs)

(* Counters, histogram sums and counts, and gauges of one Stats reply;
   run.py takes the deltas. *)
let stats_json (s : Obs.snapshot) =
  O
    [
      ("counters", O (List.map (fun (k, v) -> (k, I v)) s.Obs.counters));
      ("hist_sum", O (List.map (fun (k, (h : Obs.histogram_summary)) -> (k, F h.Obs.sum)) s.Obs.histograms));
      ( "hist_count",
        O (List.map (fun (k, (h : Obs.histogram_summary)) -> (k, I h.Obs.count)) s.Obs.histograms) );
      ("gauges", O (List.map (fun (k, v) -> (k, I v)) s.Obs.gauges));
    ]

let proc_json p =
  O [ ("io", O (List.map (fun (k, v) -> (k, I v)) p.io)); ("cpu_ms", F p.cpu_ms); ("hwm_kb", I p.hwm_kb) ]

(* load ------------------------------------------------------------------- *)

let connect addr =
  let deadline = now () +. 60. in
  let rec go () =
    match Client.connect ~client_name:"perfbench" addr with
    | c -> c
    | exception (Unix.Unix_error _ as e) ->
        if now () > deadline then raise e
        else begin
          Unix.sleepf 0.001;
          go ()
        end
  in
  go ()

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let load ~workload ~seed ~socket ~wal_file ~server_pid ~seconds ~trace ~setup_only ~out ~expect_path =
  let addr = Addr.parse socket in
  (* Connections: one builds the composites, two carry the load (the
     read-back and the gate's reads run on a fresh one after the writers
     close theirs), and [ctl] only reads Stats between phases. *)
  let build_conn = connect addr in
  let world = build_world build_conn workload ~seed in
  let setup_done = now () in
  Client.close build_conn;
  let ctl = connect addr in
  let s_setup = Client.stats ctl in
  if setup_only then begin
    Client.close ctl;
    save_json out (O [ ("setup_done", F setup_done); ("setup_stats", stats_json s_setup) ])
  end
  else begin
    let sizes = { rings = Array.length world.world_rings; roots = Array.length world.world_roots } in
    let counts = Array.mapi (fun i _ -> List.length (expected_components world i)) world.world_roots in
    let nwriters = writers workload in
    let logs = Array.init 2 (fun _ -> new_log ()) in
    let writers_done = Atomic.make 0 in
    let commits = Atomic.make 0 in
    let t0 = ref 0. in
    let traced_now t = trace && int_of_float ((t -. !t0) /. trace_period) land 1 = 1 in
    (* Traced runs sample the version store's chain count from one load
       connection, between its requests. *)
    let sample_chains log c last =
      if trace && now () -. !last > 0.5 then begin
        last := now ();
        match Obs.find_gauge (Client.stats c) "mvcc.chains" with
        | Some n -> log.chains_peak <- max log.chains_peak n
        | None -> ()
      end
    in
    let stop_writing j =
      match workload with
      | Wal_growth -> j land 63 = 0 && file_size wal_file > log_target
      | Hot_pair -> Atomic.get commits >= hot_pair_commits
      | Snapshot_read -> now () -. !t0 >= seconds
    in
    let writer i () =
      let log = logs.(i) in
      let c = connect addr in
      let r = rng seed (conn_salt (Writer i)) in
      let period = 1. /. writer_rate in
      let last_sample = ref 0. in
      (try
         let j = ref 0 in
         while not (stop_writing !j) do
           incr j;
           let rings, attrs =
             match next_input workload sizes (Writer i) r with
             | Update rs ->
                 let rings = List.map (fun k -> world.world_rings.(k)) rs in
                 (rings, List.map (fun _ -> make_attrs workload r) rs)
             | Read _ -> assert false
           in
           let start =
             match workload with
             | Snapshot_read ->
                 (* Open loop: each transaction is timed from when it
                    was due, so a stall also counts against the ones
                    queued behind it. *)
                 let due = !t0 +. (float_of_int (!j - 1) *. period) in
                 let t = now () in
                 if due > t then Unix.sleepf (due -. t);
                 log.late_ms <- (Float.max 0. (now () -. due) *. 1e3) :: log.late_ms;
                 due
             | Wal_growth | Hot_pair -> now ()
           in
           transaction ~traced:(traced_now start) log c ~start ~rings ~attrs;
           Atomic.incr commits;
           if i = 0 && workload <> Snapshot_read then sample_chains log c last_sample
         done
       with
      | Lost msg ->
          log.failed <- log.failed + 1;
          error log ("transaction lost after its locks were granted: " ^ msg)
      | e -> error log ("writer: " ^ Printexc.to_string e));
      Atomic.incr writers_done;
      try Client.close c with _ -> ()
    in
    let reader () =
      let log = logs.(1) in
      let c = connect addr in
      let r = rng seed (conn_salt Reader) in
      let last_sample = ref 0. in
      (try
         while Atomic.get writers_done < nwriters do
           match next_input workload sizes Reader r with
           | Read i ->
               let traced = traced_now (now ()) in
               ignore
                 (snapshot_read ~traced log c world.world_roots.(i) ~expect:counts.(i) : Oid.t list option);
               sample_chains log c last_sample
           | Update _ -> assert false
         done
       with e -> error log ("reader: " ^ Printexc.to_string e));
      try Client.close c with _ -> ()
    in
    let s0 = Client.stats ctl and p0 = read_proc server_pid in
    t0 := now ();
    let domains =
      match workload with
      | Snapshot_read -> [ Domain.spawn (writer 0); Domain.spawn reader ]
      | Wal_growth | Hot_pair -> [ Domain.spawn (writer 0); Domain.spawn (writer 1) ]
    in
    List.iter Domain.join domains;
    let write_s = now () -. !t0 in
    let log_bytes_end = file_size wal_file in
    let p1 = read_proc server_pid and s1 = Client.stats ctl in
    (* Read-back: snapshot reads with no writer running.  On
       snapshot-read the concurrent reader's figures are the reads. *)
    let back = new_log () in
    let reads = connect addr in
    (* Enough reads for several of the read percentiles' blocks of
       10000 a run: wal-growth runs a few long trials, hot-pair dozens
       of short ones. *)
    let readback_n = match workload with Wal_growth -> 20000 | Hot_pair -> 2000 | Snapshot_read -> 0 in
    let rr = rng seed (conn_salt Readback) in
    let t2 = now () in
    for j = 1 to readback_n do
      match next_input workload sizes Readback rr with
      | Read i ->
          (* A hot-pair read-back is shorter than one trace period: every
             other read is traced. *)
          ignore
            (snapshot_read ~traced:(trace && j land 1 = 0) back reads world.world_roots.(i) ~expect:counts.(i)
              : Oid.t list option)
      | Update _ -> assert false
    done;
    let readback_s = now () -. t2 in
    let s2 = Client.stats ctl and p2 = read_proc server_pid in
    (* The gate's live check: every root holds exactly the components
       whose commits were acknowledged. *)
    let gate = new_log () in
    Out_channel.with_open_bin expect_path (fun oc ->
        Array.iteri
          (fun i root ->
            let want = List.sort Oid.compare (expected_components world i) in
            (match snapshot_read ~traced:false gate reads root ~expect:(List.length want) with
            | Some got when List.equal Oid.equal (List.sort Oid.compare got) want -> ()
            | Some _ ->
                error gate
                  (Printf.sprintf "root %s: components differ from the acknowledged set" (Oid.to_string root))
            | None -> ());
            Printf.fprintf oc "%d:%s\n" (Oid.to_int root)
              (String.concat " " (List.map (fun o -> string_of_int (Oid.to_int o)) want)))
          world.world_roots);
    Client.close reads;
    Client.close ctl;
    let wlogs = Array.to_list (Array.sub logs 0 nwriters) in
    let reads_log = match workload with Snapshot_read -> logs.(1) | Wal_growth | Hot_pair -> back in
    let sum f = List.fold_left (fun acc l -> acc + f l) 0 wlogs in
    let cat f = List.concat_map f wlogs in
    let sumf f = List.fold_left (fun acc l -> acc +. f l) 0. wlogs in
    save_json out
      (O
         [
           ("setup_done", F setup_done);
           ("setup_stats", stats_json s_setup);
           ("tx_attempted", I (sum (fun l -> l.attempted)));
           ("tx_committed", I (sum (fun l -> l.committed)));
           ("tx_failed", I (sum (fun l -> l.failed)));
           ("retries", I (sum (fun l -> l.retries)));
           ("write_s", F write_s);
           ("trace_period", F trace_period);
           ("log_bytes_end", I log_bytes_end);
           ("tx_ms", floats (cat (fun l -> l.tx_ms)));
           ("done_at", floats (List.sort Float.compare (cat (fun l -> l.done_at))));
           ("late_ms", floats (cat (fun l -> l.late_ms)));
           ("reads", I reads_log.reads);
           ("read_failed", I (logs.(1).read_failed + back.read_failed));
           ("read_s", F (match workload with Snapshot_read -> write_s | _ -> readback_s));
           ("read_ms", floats reads_log.read_ms);
           ("traced_tx", I (sum (fun l -> l.traced_tx)));
           ("untraced_tx", I (sum (fun l -> l.untraced_tx)));
           ("traced_reads", I reads_log.traced_reads);
           ("untraced_reads", I reads_log.untraced_reads);
           ("tx_ms_traced", floats (cat (fun l -> l.tx_ms_traced)));
           ("begin_us", floats (cat (fun l -> l.begin_us)));
           ("lock_us", floats (cat (fun l -> l.lock_us)));
           ("eval_us", floats (cat (fun l -> l.eval_us)));
           ("commit_us", floats (cat (fun l -> l.commit_us)));
           ("snapshot_us", floats reads_log.snapshot_us);
           ("components_us", floats reads_log.components_us);
           ("tx_span_s", F (sumf (fun l -> l.span_s)));
           ("tx_s", F (sumf (fun l -> l.tx_s)));
           ("read_span_s", F reads_log.span_s);
           ("read_tx_s", F reads_log.tx_s);
           ("chains_peak", I (max logs.(0).chains_peak logs.(1).chains_peak));
           ("stats0", stats_json s0);
           ("stats1", stats_json s1);
           ("stats2", stats_json s2);
           ("proc0", proc_json p0);
           ("proc1", proc_json p1);
           ("proc2", proc_json p2);
           ("errors", L (List.map (fun e -> S e) (List.concat_map (fun l -> List.rev l.errors) (Array.to_list logs @ [ back; gate ]))));
         ])
  end

(* verify ----------------------------------------------------------------- *)

let verify ~db_path ~expect_path =
  let db = Persist.load (Store.load_file db_path) in
  let bad = ref 0 and roots = ref 0 in
  In_channel.with_open_bin expect_path (fun ic ->
      In_channel.input_all ic |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> "")
      |> List.iter (fun line ->
             match String.split_on_char ':' line with
             | [ root; comps ] ->
                 incr roots;
                 let root = Oid.of_int (int_of_string root) in
                 let want =
                   String.split_on_char ' ' comps
                   |> List.filter (fun s -> s <> "")
                   |> List.map (fun s -> Oid.of_int (int_of_string s))
                   |> List.sort Oid.compare
                 in
                 let got =
                   match Database.find db root with
                   | None -> []
                   | Some _ -> List.sort Oid.compare (Traversal.components_of db root)
                 in
                 if not (List.equal Oid.equal got want) then begin
                   incr bad;
                   Printf.printf "root %s: recovered %d components, %d acknowledged\n" (Oid.to_string root)
                     (List.length got) (List.length want)
                 end
             | _ -> failwith ("bad expect line: " ^ line)));
  if !roots = 0 || !bad > 0 then begin
    Printf.printf "verify: %d of %d roots differ\n" !bad !roots;
    exit 1
  end

(* engine ----------------------------------------------------------------- *)

(* Median per-call time of [f] in seconds over [batches] batches of
   [per] calls. *)
let time_calls ?(batches = 21) ~per f =
  let samples =
    Array.init batches (fun _ ->
        let t0 = now () in
        for _ = 1 to per do
          f ()
        done;
        (now () -. t0) /. float_of_int per)
  in
  Array.sort Float.compare samples;
  samples.(batches / 2)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let engine ~seed ~db_path ~wal_path ~dir ~out =
  (* A snapshot-read composite. *)
  let forest = Part_gen.generate ~roots:forest_roots (forest_config seed) in
  let froots = Array.of_list forest.Part_gen.roots in
  let fi = ref 0 in
  let components_of =
    time_calls ~per:200 (fun () ->
        fi := (!fi + 1) mod Array.length froots;
        ignore (Traversal.components_of forest.Part_gen.db froots.(!fi) : Oid.t list))
  in
  (* Two Assemblies at workload fanout, built by the DSL the server
     runs, and one wal-growth transaction's form on the first. *)
  let env = Eval.create_env () in
  ignore (Eval.eval_program env schema_forms : Eval.v list);
  let db = Eval.database env in
  let r = rng seed 3 in
  let assembly name =
    ignore (Eval.eval_program env (Printf.sprintf "(setq %s (make Assembly))" name) : Eval.v list);
    let ring =
      {
        parent_var = name;
        prefix = name ^ "_";
        cls = "Part";
        attr = "Parts";
        slots = Array.make (fanout + 1) None;
        k = 0;
        root = Option.get (Eval.lookup env name);
      }
    in
    for s = 0 to fanout - 1 do
      ignore
        (Eval.eval_program env
           (Printf.sprintf "(setq %s%d (make Part :parent ((%s Parts)) :Name \"seed-%d\"))" ring.prefix s
              name (Random.State.bits r))
          : Eval.v list);
      ring.slots.(s) <- Eval.lookup env (Printf.sprintf "%s%d" ring.prefix s)
    done;
    ring
  in
  let ring = assembly "a" and ring2 = assembly "b" in
  let root = ring.root in
  let dsl_eval =
    time_calls ~per:200 (fun () ->
        let form, fresh, oldest = ring_update ring ~attrs:(make_attrs Wal_growth r) in
        ignore (Eval.eval_program env form : Eval.v list);
        ring.slots.(fresh) <- Eval.lookup env (Printf.sprintf "%s%d" ring.prefix fresh);
        ring.slots.(oldest) <- None;
        ring.k <- ring.k + 1)
  in
  let inst = Database.get db root in
  let image = Codec.encode db inst in
  let encode = time_calls ~per:2000 (fun () -> ignore (Codec.encode db inst : bytes)) in
  let decode = time_calls ~per:2000 (fun () -> ignore (Codec.decode image : Orion_core.Instance.t)) in
  let touched = root :: ring_members ring in
  let records = Wal.commit_records db ~tx:1 ~touched in
  (* One hot-pair transaction's lock set. *)
  let granules =
    Protocol.composite_object_locks db ~root Protocol.Update
    @ Protocol.composite_object_locks db ~root:ring2.root Protocol.Update
  in
  let table = Lock_table.create () in
  let txn = ref 0 in
  let tx_locks =
    time_calls ~per:2000 (fun () ->
        incr txn;
        List.iter (fun (g, m) -> ignore (Lock_table.acquire table ~tx:!txn g m : [ `Granted | `Blocked ])) granules;
        ignore (Lock_table.release_all table ~tx:!txn : int list))
  in
  (* Wal.sync with a backing file, at 1 MB and 4 MB of log: each sync
     rewrites the whole log. *)
  let backed = Wal.create () in
  let backing = Filename.concat dir "engine.wal" in
  Wal.set_backing backed (Some backing);
  let grow_to bytes =
    while Wal.size backed < bytes do
      List.iter (Wal.append backed) records
    done
  in
  grow_to (1 lsl 20);
  let sync_1mb = time_calls ~batches:15 ~per:2 (fun () -> Wal.sync backed) in
  grow_to (4 lsl 20);
  let sync_4mb = time_calls ~batches:9 ~per:1 (fun () -> Wal.sync backed) in
  Wal.set_backing backed None;
  (try Sys.remove backing with Sys_error _ -> ());
  (* Version_store: publish with no snapshot open, and with one open
     across each batch of ten commits (closing it prunes, as a reader's
     end-snapshot does); then read a chain. *)
  let vs = Version_store.create db in
  let clock = ref (Version_store.current_clock vs) in
  let publish () =
    incr clock;
    Version_store.publish_records vs ~clock:!clock records
  in
  let publish0 = time_calls ~per:200 publish in
  let publish1 =
    median
      (List.init 201 (fun i ->
           ignore (Version_store.open_snap vs ~id:i : int);
           let t0 = now () in
           for _ = 1 to 10 do
             publish ()
           done;
           let dt = (now () -. t0) /. 10. in
           Version_store.close_snap vs ~id:i;
           dt))
  in
  ignore (Version_store.open_snap vs ~id:0 : int);
  let reads_at = !clock in
  for _ = 1 to 10 do
    publish ()
  done;
  let read =
    time_calls ~per:2000 (fun () ->
        ignore (Version_store.read vs ~clock:reads_at root : [ `Image of Version_store.image | `Absent | `Fallthrough ]))
  in
  (* The workload's store, loaded and decoded; then Recovery.replay of
     the crashed server's store and log. *)
  let load_s =
    median
      (List.init 3 (fun _ ->
           let t0 = now () in
           ignore (Persist.load (Store.load_file db_path) : Database.t);
           now () -. t0))
  in
  let replay =
    median
      (List.init 3 (fun _ ->
           let wal = Wal.load_file wal_path in
           let snapshot = Store.load_file db_path in
           let t0 = now () in
           ignore (Recovery.replay ~snapshot wal : Database.t * Recovery.stats);
           now () -. t0))
  in
  save_json out
    (O
       [
         ("core.components_of_us", F (components_of *. 1e6));
         ("core.encode_us", F (encode *. 1e6));
         ("core.decode_us", F (decode *. 1e6));
         ("dsl.eval_us", F (dsl_eval *. 1e6));
         ("locking.tx_locks_us", F (tx_locks *. 1e6));
         ("wal.sync_ms.log-1mb", F (sync_1mb *. 1e3));
         ("wal.sync_ms.log-4mb", F (sync_4mb *. 1e3));
         ("mvcc.publish_us.snaps-0", F (publish0 *. 1e6));
         ("mvcc.publish_us.snaps-1", F (publish1 *. 1e6));
         ("mvcc.read_us", F (read *. 1e6));
         ("storage.load_s", F load_s);
         ("wal.replay_s", F replay);
       ])

(* main ------------------------------------------------------------------- *)

let () =
  let args = Array.to_list Sys.argv in
  let cmd = match args with _ :: cmd :: _ -> cmd | _ -> "" in
  let rec opt name = function k :: v :: _ when k = name -> Some v | _ :: rest -> opt name rest | [] -> None in
  let req name =
    match opt name args with
    | Some v -> v
    | None ->
        prerr_endline ("gen: missing " ^ name);
        exit 2
  in
  let int name = int_of_string (req name) in
  let workload () = workload_of_string (req "--workload") in
  match cmd with
  | "setup" -> setup ~workload:(workload ()) ~seed:(int "--seed") ~db_path:(req "--db")
  | "inputs" ->
      print_inputs ~workload:(workload ()) ~seed:(int "--seed") ~conn:(conn_of_string (req "--conn"))
        ~count:(int "--count")
  | "load" ->
      load ~workload:(workload ()) ~seed:(int "--seed") ~socket:(req "--socket") ~wal_file:(req "--wal-file")
        ~server_pid:(int "--server-pid")
        ~seconds:(float_of_string (req "--seconds"))
        ~trace:(int "--trace" = 1) ~setup_only:(int "--setup-only" = 1) ~out:(req "--out")
        ~expect_path:(req "--expect")
  | "verify" -> verify ~db_path:(req "--db") ~expect_path:(req "--expect")
  | "engine" ->
      engine ~seed:(int "--seed") ~db_path:(req "--db") ~wal_path:(req "--wal") ~dir:(req "--dir") ~out:(req "--out")
  | _ ->
      prerr_endline "usage: gen (setup|inputs|load|verify|engine) ...";
      exit 2
