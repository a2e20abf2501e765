(* The [matrix] workload: the paper's 11 kernels x {single, GREMIO,
   GREMIO+COCO, DSWP, DSWP+COCO} evaluation matrix through
   [Velocity.run_matrix], plus the traced per-layer replay. *)

module V = Gmt_core.Velocity
module W = Gmt_workloads.Workload
module Pdg = Gmt_pdg.Pdg
module Mtcg = Gmt_mtcg.Mtcg
module Config = Gmt_machine.Config

let nproc = Domain.recommended_domain_count ()

(* Every pass draws a fresh order from the seeded generator, so a run
   averages over fan-out orders instead of hinging on one. *)
let permute rng ws =
  let a = Array.of_list ws in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let cells_of_row (r : V.row) =
  [ ("single", r.V.st); ("gremio", r.V.gremio); ("gremio+coco", r.V.gremio_coco);
    ("dswp", r.V.dswp); ("dswp+coco", r.V.dswp_coco) ]

let fingerprint_of_metrics (m : V.metrics) =
  (m.V.dyn_instrs, m.V.comm_instrs, m.V.mem_syncs, m.V.cycles)

(* The exact Fig 1/7/8 figures over the 44 multi-threaded cells. *)
let fig8 rows =
  let speedups = ref [] and comm = ref 0 and dyn = ref 0 in
  List.iter
    (fun (r : V.row) ->
      List.iter
        (fun (name, (t : V.timed)) ->
          if name <> "single" then begin
            speedups :=
              (float_of_int r.V.st.V.metrics.V.cycles
              /. float_of_int t.V.metrics.V.cycles)
              :: !speedups;
            comm := !comm + t.V.metrics.V.comm_instrs;
            dyn := !dyn + t.V.metrics.V.dyn_instrs
          end)
        (cells_of_row r))
    rows;
  (Stats.geomean !speedups, float_of_int !comm /. float_of_int !dyn)

type pass = {
  jobs : int;
  wall : float;
  cell_walls : (string * float) list;  (** per cell label, seconds *)
  failures : string list;
  rows : V.row list;
}

(* One matrix pass. A cell fails when [run_matrix] raises for it (a
   verification rejection, a deadlock, a memory divergence), when a
   single-threaded cell deadlocks or runs out of fuel, or when its
   counts differ from the set-up pass (the output must be identical for
   every order and every [jobs]). *)
let run_pass ~jobs ~reference ws =
  let t0 = Unix.gettimeofday () in
  match V.run_matrix ~jobs ws with
  | exception e ->
    { jobs; wall = Unix.gettimeofday () -. t0; cell_walls = [];
      failures = [ Printexc.to_string e ]; rows = [] }
  | rows ->
    let wall = Unix.gettimeofday () -. t0 in
    let failures = ref [] and cell_walls = ref [] in
    List.iter
      (fun (r : V.row) ->
        List.iter
          (fun (name, (t : V.timed)) ->
            let label = r.V.rw.W.name ^ "/" ^ name in
            cell_walls := (label, t.V.wall_s) :: !cell_walls;
            let m = t.V.metrics in
            if m.V.deadlocked || m.V.fuel_exhausted then
              failures := (label ^ ": deadlock or fuel exhausted") :: !failures
            else
              match reference with
              | Some tbl
                when Hashtbl.find_opt tbl label
                     <> Some (fingerprint_of_metrics m) ->
                failures := (label ^ ": counts differ from the set-up pass") :: !failures
              | _ -> ())
          (cells_of_row r))
      rows;
    { jobs; wall; cell_walls = !cell_walls; failures = !failures; rows }

let reference_of rows =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (r : V.row) ->
      List.iter
        (fun (name, (t : V.timed)) ->
          Hashtbl.replace tbl (r.V.rw.W.name ^ "/" ^ name)
            (fingerprint_of_metrics t.V.metrics))
        (cells_of_row r))
    rows;
  tbl

let n_cells ws = 5 * List.length ws

(* Set-up, timed [setups] times: build the suite and run one untimed
   pass at [jobs] = nproc (domain spawn, heap growth, the first-touch
   cost every later pass is spared). The last set-up pass is the
   reference every timed cell is compared with. *)
let setup ~rng ~setups =
  let times = ref [] and last = ref None in
  for _ = 1 to setups do
    let t0 = Unix.gettimeofday () in
    let ws = permute rng (Gmt_workloads.Suite.all ()) in
    let p = run_pass ~jobs:nproc ~reference:None ws in
    times := (Unix.gettimeofday () -. t0) :: !times;
    last := Some (ws, p)
  done;
  match !last with
  | Some (ws, p) -> (List.rev !times, ws, p)
  | None -> assert false

let report_failures ps =
  List.iter
    (fun p ->
      List.iter
        (fun f -> Printf.eprintf "[perfbench] FAILED matrix cell (jobs %d): %s\n%!" p.jobs f)
        p.failures)
    ps

type e2e = {
  setup_times : float list;
  rate_r1 : float list;  (** cells/s of each jobs = 1 pass *)
  rate_r2 : float list;  (** cells/s of each jobs = nproc pass *)
  lat_r1 : float list;  (** each cell's fastest wall at jobs = 1, ms *)
  lat_r2 : float list;  (** each cell's fastest wall at jobs = nproc, ms *)
  speedup : float;
  comm_share : float;
  attempted : int;
  failed : int;
}

(* Seconds one round takes on a 2-core host at the parent commit. The
   round count is fixed by the run length, not by the clock, so every
   run does the same work and its percentiles rest on the same number
   of samples. *)
let round_s = 3.2

(* End-to-end run: rounds of one pass at jobs = 1 (the light level,
   [r1]) and two at jobs = nproc (the heavy level, [r2]). *)
let e2e ~seed ~seconds =
  let rng = Random.State.make [| seed; 0x6d61 |] in
  let setup_times, ws, ref_pass = setup ~rng ~setups:3 in
  let reference = Some (reference_of ref_pass.rows) in
  let passes = ref [] in
  for _ = 1 to max 1 (int_of_float ((seconds /. round_s) +. 0.5)) do
    List.iter
      (fun jobs ->
        let ws = permute rng ws in
        passes := run_pass ~jobs ~reference ws :: !passes)
      [ 1; nproc; nproc ]
  done;
  let passes = List.rev !passes in
  report_failures (ref_pass :: passes);
  let at j = List.filter (fun p -> p.jobs = j) passes in
  let cells = n_cells ws in
  let rates j = List.map (fun p -> float_of_int cells /. p.wall) (at j) in
  (* A cell is a fixed computation, so its latency is its fastest run:
     interference on a shared host only ever adds to it. *)
  let lat j =
    let best = Hashtbl.create 64 in
    List.iter
      (fun p ->
        List.iter
          (fun (label, w) ->
            match Hashtbl.find_opt best label with
            | Some b when b <= w -> ()
            | _ -> Hashtbl.replace best label w)
          p.cell_walls)
      (at j);
    Hashtbl.fold (fun _ w acc -> (w *. 1e3) :: acc) best []
  in
  let speedup, comm_share = fig8 ref_pass.rows in
  {
    setup_times;
    rate_r1 = rates 1;
    rate_r2 = rates nproc;
    lat_r1 = lat 1;
    lat_r2 = lat nproc;
    speedup;
    comm_share;
    attempted = cells * (1 + List.length passes);
    failed =
      List.fold_left (fun a p -> a + List.length p.failures) 0 (ref_pass :: passes);
  }

(* ------------------------- traced replay ------------------------- *)

(* Per-layer times in milliseconds, summed over one matrix pass. *)
type layers = {
  mutable profile : float;
  mutable pdg : float;
  mutable partition : float;
  mutable coco : float;
  mutable plan : float;
  mutable generate : float;
  mutable cleanup : float;
  mutable verify : float;
  mutable validate : float;
  mutable oracle : float;
  mutable mt_interp : float;
  mutable sim : float;
  mutable cell_wall : float;
  mutable cycles : int;
  mutable arcs : int;
  mutable pruned : int;
  mutable coco_iters : int;
  mutable comm_sites : int;
}

let fresh_layers () =
  { profile = 0.; pdg = 0.; partition = 0.; coco = 0.; plan = 0.;
    generate = 0.; cleanup = 0.; verify = 0.; validate = 0.; oracle = 0.;
    mt_interp = 0.; sim = 0.; cell_wall = 0.; cycles = 0; arcs = 0;
    pruned = 0; coco_iters = 0; comm_sites = 0 }

let named_ms l =
  l.profile +. l.pdg +. l.partition +. l.coco +. l.plan +. l.generate
  +. l.cleanup +. l.verify +. l.validate +. l.mt_interp +. l.sim

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, (Unix.gettimeofday () -. t0) *. 1e3)

exception Replay_mismatch of string

let program_text mtp = Format.asprintf "%a" Gmt_ir.Printer.pp_mtprog mtp

(* [Velocity.compile] followed by [Velocity.measure], one public layer
   call at a time, in the same order and with the same arguments. *)
let replay_mt (l : layers) (w : W.t) ~expect technique coco =
  let n_threads = 2 in
  let (), dt = timed (fun () -> Gmt_ir.Validate.check w.W.func) in
  l.validate <- l.validate +. dt;
  let r, dt =
    timed (fun () ->
        Gmt_machine.Interp.run ~init_regs:w.W.train.W.regs
          ~init_mem:w.W.train.W.mem w.W.func ~mem_size:w.W.mem_size)
  in
  l.profile <- l.profile +. dt;
  if r.Gmt_machine.Interp.fuel_exhausted then failwith "train run exhausted fuel";
  let profile = r.Gmt_machine.Interp.profile in
  let pdg, dt = timed (fun () -> Pdg.build ~prune_mem:w.W.mem_size w.W.func) in
  l.pdg <- l.pdg +. dt;
  l.arcs <- l.arcs + List.length (Pdg.arcs pdg);
  l.pruned <- l.pruned + Pdg.mem_pruned pdg;
  let part, dt =
    timed (fun () ->
        let p =
          match technique with
          | V.Dswp -> Gmt_sched.Dswp.partition ~n_threads pdg profile
          | V.Gremio -> Gmt_sched.Gremio.partition ~n_threads pdg profile
        in
        (match Gmt_sched.Partition.errors p w.W.func with
        | [] -> ()
        | es -> failwith (String.concat "; " es));
        p)
  in
  l.partition <- l.partition +. dt;
  let plan =
    if coco then begin
      let (plan, stats), dt =
        timed (fun () -> Gmt_coco.Coco.optimize pdg part profile)
      in
      l.coco <- l.coco +. dt;
      l.coco_iters <- l.coco_iters + stats.Gmt_coco.Coco.iterations;
      plan
    end
    else begin
      let plan, dt = timed (fun () -> Mtcg.baseline_plan pdg part) in
      l.plan <- l.plan +. dt;
      plan
    end
  in
  l.comm_sites <- l.comm_sites + List.length plan.Mtcg.comms;
  let mc = V.machine_config ~n_cores:(max 2 n_threads) technique in
  let limit = (V.machine_config technique).Config.n_queues in
  let queues, dt =
    timed (fun () ->
        if Mtcg.n_queues plan > limit then
          Gmt_mtcg.Queue_alloc.allocate ~max_queues:limit plan.Mtcg.comms
        else Gmt_mtcg.Queue_alloc.identity plan.Mtcg.comms)
  in
  l.plan <- l.plan +. dt;
  let (mtp, origin), dt =
    timed (fun () -> Mtcg.generate_with_origin ~queues pdg part plan)
  in
  l.generate <- l.generate +. dt;
  let mtp, dt = timed (fun () -> Gmt_opt.Opt.cleanup_threads mtp) in
  l.cleanup <- l.cleanup +. dt;
  let (), dt =
    timed (fun () ->
        Array.iter (Gmt_ir.Validate.check ~n_queues:limit) mtp.Gmt_ir.Mtprog.threads)
  in
  l.validate <- l.validate +. dt;
  let diags, dt =
    timed (fun () ->
        Gmt_verify.Verify.run ~max_queues:limit
          ~queue_of:queues.Gmt_mtcg.Queue_alloc.queue_of ~prune_mem:w.W.mem_size
          ~pdg ~partition:part ~plan ~origin mtp)
  in
  l.verify <- l.verify +. dt;
  if diags <> [] then failwith "translation validation rejected the replay";
  let mt, dt =
    timed (fun () ->
        Gmt_machine.Mt_interp.run ~init_regs:w.W.reference.W.regs
          ~init_mem:w.W.reference.W.mem mtp ~queue_capacity:mc.Config.queue_size
          ~mem_size:w.W.mem_size)
  in
  l.mt_interp <- l.mt_interp +. dt;
  if mt.Gmt_machine.Mt_interp.deadlocked then failwith "deadlock in replay";
  if mt.Gmt_machine.Mt_interp.memory <> expect then failwith "replay memory diverges";
  let sim, dt =
    timed (fun () ->
        Gmt_machine.Sim.run ~init_regs:w.W.reference.W.regs
          ~init_mem:w.W.reference.W.mem mc mtp ~mem_size:w.W.mem_size)
  in
  l.sim <- l.sim +. dt;
  l.cycles <- l.cycles + sim.Gmt_machine.Sim.cycles;
  let syncs =
    Array.fold_left
      (fun acc (t : Gmt_machine.Mt_interp.thread_stats) ->
        acc + t.Gmt_machine.Mt_interp.produce_syncs + t.Gmt_machine.Mt_interp.consume_syncs)
      0 mt.Gmt_machine.Mt_interp.threads
  in
  ( mtp,
    ( Gmt_machine.Mt_interp.total_dyn mt,
      Gmt_machine.Mt_interp.total_comm mt,
      syncs,
      sim.Gmt_machine.Sim.cycles ) )

let replay_single (l : layers) (w : W.t) ~dyn =
  let mc = Config.itanium2 () in
  let sim, dt =
    timed (fun () ->
        Gmt_machine.Sim.run_single ~init_regs:w.W.reference.W.regs
          ~init_mem:w.W.reference.W.mem mc w.W.func ~mem_size:w.W.mem_size)
  in
  l.sim <- l.sim +. dt;
  l.cycles <- l.cycles + sim.Gmt_machine.Sim.cycles;
  (dyn, 0, 0, sim.Gmt_machine.Sim.cycles)

(* Velocity's own view of every cell: its metrics from [run_matrix] and
   the program text of [Velocity.compile], the two things the replay
   must reproduce exactly. *)
let velocity_reference ws =
  let rows = V.run_matrix ~jobs:1 ws in
  let tbl = reference_of rows in
  let texts = Hashtbl.create 64 in
  List.iter
    (fun (w : W.t) ->
      List.iter
        (function
          | V.Single -> ()
          | V.Mt (tech, coco) as k ->
            let c = V.compile ~n_threads:2 ~coco tech w in
            Hashtbl.replace texts
              (w.W.name ^ "/" ^ V.cell_name k)
              (program_text c.V.mtp))
        V.matrix_kinds)
    ws;
  (tbl, texts)

(* Summed cell walls of a [run_matrix] result, ms. *)
let cell_ms rows =
  1e3
  *. List.fold_left
       (fun a r -> List.fold_left (fun a (_, t) -> a +. t.V.wall_s) a (cells_of_row r))
       0. rows

(* One replay pass; raises [Replay_mismatch] on the first cell whose
   program text or counts differ from Velocity's. *)
let replay_pass ~tick ~tbl ~texts ws =
  let l = fresh_layers () in
  List.iter
    (fun (w : W.t) ->
      let (expect, dyn), dt =
        timed (fun () ->
            let r =
              Gmt_machine.Interp.run ~init_regs:w.W.reference.W.regs
                ~init_mem:w.W.reference.W.mem w.W.func ~mem_size:w.W.mem_size
            in
            (r.Gmt_machine.Interp.memory, r.Gmt_machine.Interp.dyn_instrs))
      in
      l.oracle <- l.oracle +. dt;
      List.iter
        (fun kind ->
          let label = w.W.name ^ "/" ^ V.cell_name kind in
          let t0 = Unix.gettimeofday () in
          let text, counts =
            match kind with
            | V.Single -> (None, replay_single l w ~dyn)
            | V.Mt (tech, coco) ->
              let mtp, counts = replay_mt l w ~expect tech coco in
              (Some mtp, counts)
          in
          l.cell_wall <- l.cell_wall +. ((Unix.gettimeofday () -. t0) *. 1e3);
          if Hashtbl.find_opt tbl label <> Some counts then
            raise (Replay_mismatch (label ^ ": counts differ from Velocity.run_matrix"));
          (match text with
          | Some mtp when Hashtbl.find_opt texts label <> Some (program_text mtp) ->
            raise (Replay_mismatch (label ^ ": program text differs from Velocity.compile"))
          | _ -> ());
          tick ())
        V.matrix_kinds)
    ws;
  l

(* Fan-out figures from [run_matrix]'s public per-cell walls. *)
let fanout (p : pass) =
  let jobs = float_of_int p.jobs in
  let walls = List.map snd p.cell_walls in
  let busy = Stats.sum walls /. (p.wall *. jobs) in
  let longest = List.fold_left Float.max 0. walls in
  (busy, longest /. p.wall)

type traced = {
  t_passes : layers list;
  t_fanout : (float * float) list;
  t_overhead : float;
  t_gc : Gcev.t;
  t_window_s : float;
}

let traced ~seed ~seconds =
  let rng = Random.State.make [| seed; 0x6d61 |] in
  let ws = permute rng (Gmt_workloads.Suite.all ()) in
  let tbl, texts = velocity_reference ws in
  let fan =
    List.init 3 (fun _ ->
        let p = run_pass ~jobs:nproc ~reference:(Some tbl) (permute rng ws) in
        report_failures [ p ];
        if p.failures <> [] then raise (Replay_mismatch "fan-out pass failed");
        fanout p)
  in
  let gc = Gcev.self () in
  Gcev.reset gc;
  let tick () = Gcev.poll gc in
  let t0 = Unix.gettimeofday () in
  (* Each replay pass is followed by an untraced [run_matrix] pass at
     jobs = 1 on the same order. Both run warm, interleaved, so the
     overhead ratio (median over median) compares like with like. *)
  let passes = ref [] and untraced = ref [] in
  while Unix.gettimeofday () < t0 +. seconds || !passes = [] do
    let order = permute rng ws in
    passes := replay_pass ~tick ~tbl ~texts order :: !passes;
    untraced := cell_ms (V.run_matrix ~jobs:1 order) :: !untraced
  done;
  Gcev.poll gc;
  Gcev.close gc;
  let window = Unix.gettimeofday () -. t0 in
  let replay_ms = Stats.median (List.map (fun l -> l.cell_wall) !passes) in
  { t_passes = List.rev !passes; t_fanout = fan;
    t_overhead = replay_ms /. Stats.median !untraced; t_gc = gc; t_window_s = window }
