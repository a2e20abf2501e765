(* The [gmtd-hit] and [gmtd-mixed] workloads: open-loop [check] traffic
   against a [gmtc serve --jobs 2] child, plus the traced replay of the
   request handler's public steps. *)

module V = Gmt_core.Velocity
module W = Gmt_workloads.Workload
module Json = Gmt_obs.Json
module Text = Gmt_frontend.Text
module Gen = Gmt_frontend.Gen
module Render = Gmt_service.Render
module Client = Gmt_service.Client
module Proto = Gmt_service.Proto
module Cache = Gmt_cache.Cache
module Pool = Gmt_parallel.Pool

let jobs = 2

(* The fixed shape of one service workload. Rates and the tail limit
   are constants of the benchmark, recorded in every result, never
   derived from a run. *)
type config = {
  name : string;
  mem_capacity : int;  (** the daemon's LRU bound, entries *)
  pair_every : int;  (** one event in [pair_every] is a fresh-program pair; 0 = none *)
  r1 : float;  (** light offered rate, req/s *)
  r2 : float;  (** heavy offered rate, req/s *)
  limit_ms : float;  (** tail-latency limit of the rate ladder *)
  epoch : int;  (** single requests per popularity epoch (see [corpus_keys]) *)
}

(* [gmtd-hit]: 44 corpus cells fit the default 128-entry LRU. The fixed
   rates are about a seventh and a third of the capacity a 2-CPU host
   measures (~1100 req/s), so a slow stretch of the host does not push
   [r2] into overload. This workload is not in BENCHMARK.json: its
   open-loop latency moves with the host from run to run (README.md);
   [gmtd-hit-closed] gates the same read path. *)
let hit =
  { name = "gmtd-hit"; mem_capacity = 128; pair_every = 0; r1 = 150.; r2 = 300.;
    limit_ms = 40.; epoch = 10 }

(* [gmtd-mixed]: one event in nine is a pair of identical requests for a
   fresh program (a fifth of all requests). A 46-entry LRU holds the 44
   corpus cells and two more entries, so from the first fresh programs
   on every store evicts, corpus cells included. This workload is not
   in BENCHMARK.json: on a 2-CPU host with noisy neighbours its latency
   spread from seed to seed exceeds any useful bound (README.md). *)
let mixed =
  { name = "gmtd-mixed"; mem_capacity = 46; pair_every = 9; r1 = 30.; r2 = 60.;
    limit_ms = 250.; epoch = 5 }

(* ---------------------------- requests ---------------------------- *)

type cell = {
  label : string;
  text : string;  (** canonical GMT-IR, the frame attachment *)
  technique : V.technique;
  coco : bool;
  check_frame : string;
  run_frame : string;
}

type expected = { e_out : string; e_err : string; e_code : int }

let tech_name = function V.Gremio -> "gremio" | V.Dswp -> "dswp"

let mt_kinds = [ (V.Gremio, false); (V.Gremio, true); (V.Dswp, false); (V.Dswp, true) ]

let corpus () =
  Array.of_list
    (List.concat_map
       (fun (w : W.t) ->
         let text = Text.print w in
         List.map
           (fun (technique, coco) ->
             let technique_s = tech_name technique in
             {
               label = w.W.name ^ "/" ^ V.cell_name (V.Mt (technique, coco));
               text;
               technique;
               coco;
               check_frame =
                 Load.encode
                   (Client.check_request ~gmt:text ~technique:technique_s ~coco
                      ~threads:2 ());
               run_frame =
                 Load.encode
                   (Client.run_request ~gmt:text ~technique:technique_s ~coco
                      ~threads:2 ());
             })
           mt_kinds)
       (Gmt_workloads.Suite.all ()))

(* Fresh program [k] of a run: a [Gen] program, a seeded technique. *)
let fresh ~seed k =
  let st = Random.State.make [| seed; 0x66726573; k |] in
  let name = Printf.sprintf "fresh%d" k in
  let w = Gen.workload ~name (Gen.gen ~seed:(Random.State.bits st)) in
  let technique, coco = List.nth mt_kinds (Random.State.int st 4) in
  let text = Text.print w in
  {
    label = name ^ "/" ^ V.cell_name (V.Mt (technique, coco));
    text;
    technique;
    coco;
    check_frame =
      Load.encode
        (Client.check_request ~gmt:text ~technique:(tech_name technique) ~coco
           ~threads:2 ());
    run_frame = "";
  }

let of_outcome (o : Render.outcome) =
  { e_out = o.Render.out; e_err = o.Render.err; e_code = o.Render.code }

(* The offline outcome of a [check], computed outside the timed window
   with no cache: the daemon must reply the same bytes. *)
let expect_check (c : cell) =
  of_outcome (Render.check_text ~technique:c.technique ~coco:c.coco ~threads:2 c.text)

let expect_run (c : cell) =
  match Text.parse ~file:"<request>" c.text with
  | Ok w -> of_outcome (Render.run ~technique:c.technique ~coco:c.coco ~threads:2 w)
  | Error e -> failwith (Text.render_error e)

(* A reply is correct when it is not [busy], parses, exits 0, and its
   out/err/exit equal the offline outcome. [Some reason] otherwise. *)
let judge_json (e : expected) j =
  match (Proto.bool_field j "ok", Proto.bool_field j "busy") with
  | _, Some true -> Some "busy"
  | Some true, _ ->
    let out = Option.value (Proto.str_field j "out") ~default:"" in
    let err = Option.value (Proto.str_field j "err") ~default:"" in
    let code = Option.value (Proto.int_field j "exit") ~default:(-1) in
    if code <> 0 then Some (Printf.sprintf "exit %d: %s" code err)
    else if out <> e.e_out || err <> e.e_err || code <> e.e_code then
      Some "reply differs from the offline Render outcome"
    else None
  | _ -> Some ("protocol error: " ^ Json.to_string j)

let judge e reply =
  match Json.parse reply with
  | Error msg -> Some ("unparsable reply: " ^ msg)
  | Ok j -> judge_json e j

(* ---------------------------- schedule ---------------------------- *)

let n_corpus = 44

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Keys drift in popularity. Each epoch of [epoch] single requests asks
   for Zipf (s = 1) ranks, apportioned to its slots by largest remainder
   and sent in a seeded order. The rank-to-cell map is a seeded base
   permutation that rotates by one place per epoch, so every cell takes
   every rank once per cycle of 44 epochs and is asked for exactly
   [epoch] times per cycle. Hit costs differ 30x between kernels (10 KB
   to 500 KB of GMT-IR per request); a fixed hottest kernel, or a mix
   that drifts from run to run, would make a run's latency hinge on the
   seed. *)
let epoch_ranks epoch =
  let h = Array.fold_left ( +. ) 0. (Array.init n_corpus (fun r -> 1. /. float_of_int (r + 1))) in
  let quota = Array.init n_corpus (fun r -> float_of_int epoch /. (float_of_int (r + 1) *. h)) in
  let counts = Array.map int_of_float quota in
  let left = epoch - Array.fold_left ( + ) 0 counts in
  let rem r = quota.(r) -. Float.of_int counts.(r) in
  List.iteri
    (fun i r -> if i < left then counts.(r) <- counts.(r) + 1)
    (List.sort (fun a b -> compare (rem b) (rem a)) (List.init n_corpus Fun.id));
  Array.concat (Array.to_list (Array.mapi (fun r c -> Array.make c r) counts))

let cycle cfg = cfg.epoch * n_corpus

(* The corpus keys of [n] single requests. *)
let corpus_keys cfg ~seed ~salt n =
  let epoch = cfg.epoch in
  let st = Random.State.make [| seed; 0x6b6579; salt |] in
  let base = Array.init n_corpus Fun.id in
  shuffle st base;
  let ranks = epoch_ranks epoch in
  Array.init n (fun i ->
      if i mod epoch = 0 then shuffle st ranks;
      base.((ranks.(i mod epoch) + (i / epoch)) mod n_corpus))

(* [schedule cfg ~seed ~phase ~rate ~keys ~next_fresh] — Poisson
   arrivals at [rate]: one single request per key in [keys], and on
   gmtd-mixed one fresh-program pair per [pair_every - 1] singles, at
   seeded places. A single goes to the connection with fewer requests
   in flight; a pair puts the same program on both at the same due time. Keys [0, 44) are
   corpus cells, [44 + k] fresh program k. Returns the requests and the
   fresh-program numbers they use. *)
let schedule cfg ~seed ~phase ~rate ~keys ~next_fresh =
  let st = Random.State.make [| seed; 0x7363; phase |] in
  let singles = Array.length keys in
  let pairs = if cfg.pair_every = 0 then 0 else singles / (cfg.pair_every - 1) in
  let events = singles + pairs in
  let is_pair = Array.init events (fun i -> i < pairs) in
  shuffle st is_pair;
  let reqs = ref [] and fresh_ids = ref [] in
  let t = ref 0. and single = ref 0 in
  let fresh_k = ref next_fresh in
  for i = 0 to events - 1 do
    t := !t -. (log (1. -. Random.State.float st 1.) /. rate);
    if is_pair.(i) then begin
      let key = n_corpus + !fresh_k in
      fresh_ids := !fresh_k :: !fresh_ids;
      incr fresh_k;
      reqs := { Load.due = !t; conn = 1; key } :: { Load.due = !t; conn = 0; key } :: !reqs
    end
    else begin
      reqs := { Load.due = !t; conn = Load.any; key = keys.(!single) } :: !reqs;
      incr single
    end
  done;
  (Array.of_list (List.rev !reqs), List.rev !fresh_ids, !fresh_k)

(* ----------------------------- tables ----------------------------- *)

type tables = {
  cells : cell array;
  check_expect : expected array;
  run_expect : expected array;
  fresh_cells : (int, cell * expected) Hashtbl.t;
  seed : int;
}

let tables ~seed =
  let cells = corpus () in
  let idx = List.init n_corpus Fun.id in
  let both =
    Pool.run_list ~jobs
      (List.map (fun i () -> (expect_check cells.(i), expect_run cells.(i))) idx)
  in
  { cells;
    check_expect = Array.of_list (List.map fst both);
    run_expect = Array.of_list (List.map snd both);
    fresh_cells = Hashtbl.create 256;
    seed }

(* Offline outcomes for the fresh programs a phase uses, before it runs. *)
let prepare_fresh tb ids =
  let todo = List.filter (fun k -> not (Hashtbl.mem tb.fresh_cells k)) ids in
  let made =
    Pool.run_list ~jobs
      (List.map (fun k () -> let c = fresh ~seed:tb.seed k in (k, c, expect_check c)) todo)
  in
  List.iter (fun (k, c, e) -> Hashtbl.replace tb.fresh_cells k (c, e)) made

let frame tb key =
  if key < n_corpus then tb.cells.(key).check_frame
  else (fst (Hashtbl.find tb.fresh_cells (key - n_corpus))).check_frame

let expect tb key =
  if key < n_corpus then tb.check_expect.(key)
  else snd (Hashtbl.find tb.fresh_cells (key - n_corpus))

let label tb key =
  if key < n_corpus then tb.cells.(key).label
  else (fst (Hashtbl.find tb.fresh_cells (key - n_corpus))).label

(* ----------------------------- phases ----------------------------- *)

type phase = {
  lat_ms : float list;  (** due-time latency of every correct reply *)
  corpus_lat_ms : float list;  (** the same, corpus-cell requests only *)
  late_ms : float list;  (** generator lateness of every issued request *)
  attempted : int;
  failed : int;
  backlog : int;
  aborted : bool;
}

let connect socket = Array.init 2 (fun _ -> Load.conn (Daemon.connect socket))

let close_conns conns = Array.iter (fun c -> try Unix.close c.Load.fd with _ -> ()) conns

(* Run one phase and judge every reply. *)
let run_phase ?abort_after ?spin_s ?tick ~socket tb conns reqs =
  let r = Load.run ?abort_after ?spin_s ?tick !conns reqs (frame tb) in
  let lat = ref [] and corpus_lat = ref [] and late = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  Array.iteri
    (fun i (q : Load.sreq) ->
      if r.Load.issued.(i) then begin
        incr attempted;
        late := (Load.lateness reqs r i *. 1e3) :: !late;
        let verdict =
          if Float.is_nan r.Load.done_.(i) then Some "no reply before the drain deadline"
          else judge (expect tb q.Load.key) r.Load.replies.(i)
        in
        match verdict with
        | None ->
          let ms = Load.due_latency reqs r i *. 1e3 in
          lat := ms :: !lat;
          if q.Load.key < n_corpus then corpus_lat := ms :: !corpus_lat
        | Some why ->
          incr failed;
          Printf.eprintf "[perfbench] FAILED request check %s (due %.4fs): %s\n%!"
            (label tb q.Load.key) q.Load.due why
      end)
    reqs;
  if not (Load.drained !conns) then begin
    close_conns !conns;
    conns := connect socket
  end;
  { lat_ms = !lat; corpus_lat_ms = !corpus_lat; late_ms = !late;
    attempted = !attempted; failed = !failed;
    backlog = r.Load.backlog_at_end; aborted = r.Load.aborted }

(* ----------------------------- set-up ----------------------------- *)

type setup = {
  daemon : Daemon.t;
  warm_s : float;  (** wall of the 44 cold [run] requests *)
  cell_s : float array;  (** each cold [run]'s service time on its connection *)
  burst_rps : float;  (** throughput of the warm-up burst of [check]s *)
  fig8 : float * float;  (** sim_speedup_geomean, dyn_comm_share *)
  warm_failed : int;
}

(* "  single-threaded : <instrs> instrs <cycles> cycles" etc. *)
let parse_run_out out =
  let nums line =
    List.filter_map int_of_string_opt
      (String.split_on_char ' ' line |> List.filter (( <> ) ""))
  in
  let lines = String.split_on_char '\n' out in
  let find prefix =
    List.find (fun l -> String.length l >= String.length prefix
                        && String.sub l 0 (String.length prefix) = prefix) lines
  in
  let st = nums (find "  single-threaded") and mt = nums (find "  multi-threaded") in
  let comm = nums (find "  communication") in
  match (st, mt, comm) with
  | [ _; st_cycles ], [ mt_dyn; mt_cycles ], comm_instrs :: _ ->
    (st_cycles, mt_dyn, mt_cycles, comm_instrs)
  | _ -> failwith ("unexpected run report: " ^ out)

let burst_cycles = 4

(* Start the daemon, ping it, and warm it with a cold [run] of every
   corpus cell (compile, verify, simulate — the daemon stores each
   verified artifact, which the timed [check] requests then hit). The
   served reports give the Fig 8 figures through the service. *)
let setup ~gmtc ~dir ?events_dir cfg tb =
  let daemon = Daemon.start ~gmtc ~dir ~jobs ~mem_capacity:cfg.mem_capacity ?events_dir () in
  let t0 = Unix.gettimeofday () in
  let conns = connect daemon.Daemon.socket in
  let reqs = Array.init n_corpus (fun i -> { Load.due = 0.; conn = i land 1; key = i }) in
  let r = Load.run conns reqs (fun i -> tb.cells.(i).run_frame) in
  let warm_s = Unix.gettimeofday () -. t0 in
  (* The requests of a connection are served in order, so a request's
     service time runs from the previous reply on its connection. *)
  let prev = Array.make 2 r.Load.origin in
  let cell_s =
    Array.map
      (fun (q : Load.sreq) ->
        let d = r.Load.done_.(q.Load.key) -. prev.(q.Load.conn) in
        prev.(q.Load.conn) <- r.Load.done_.(q.Load.key);
        d)
      reqs
  in
  (* Then [burst_cycles] key cycles of [check]s, all due at once: the
     daemon's heap grows for its first few thousand hits, and timed work
     starts once it has. *)
  let burst =
    Array.mapi
      (fun i key -> { Load.due = 0.; conn = i land 1; key })
      (corpus_keys cfg ~seed:tb.seed ~salt:0 (burst_cycles * cycle cfg))
  in
  let t1 = Unix.gettimeofday () in
  let b = Load.run conns burst (frame tb) in
  let burst_rps = float_of_int (Array.length burst) /. (Unix.gettimeofday () -. t1) in
  close_conns conns;
  let failed = ref 0 and speedups = ref [] and comm = ref 0 and dyn = ref 0 in
  Array.iteri
    (fun i (q : Load.sreq) ->
      match judge (expect tb q.Load.key) b.Load.replies.(i) with
      | Some why ->
        incr failed;
        Printf.eprintf "[perfbench] FAILED warm-up request check %s: %s\n%!" (label tb q.Load.key) why
      | None -> ())
    burst;
  Array.iteri
    (fun i _ ->
      match judge tb.run_expect.(i) r.Load.replies.(i) with
      | Some why ->
        incr failed;
        Printf.eprintf "[perfbench] FAILED warm-up request run %s: %s\n%!" tb.cells.(i).label why
      | None ->
        let out =
          match Json.parse r.Load.replies.(i) with
          | Ok j -> Option.value (Proto.str_field j "out") ~default:""
          | Error _ -> ""
        in
        let st_cycles, mt_dyn, mt_cycles, comm_instrs = parse_run_out out in
        speedups := (float_of_int st_cycles /. float_of_int mt_cycles) :: !speedups;
        comm := !comm + comm_instrs;
        dyn := !dyn + mt_dyn)
    reqs;
  { daemon; warm_s; cell_s; burst_rps;
    fig8 = (Stats.geomean !speedups, float_of_int !comm /. float_of_int (max 1 !dyn));
    warm_failed = !failed }

(* --------------------------- the ladder --------------------------- *)

let probe_s = 1.0
let ladder_probes = 12
let min_step = 1.04

(* A probe passes when every reply is correct, the tail meets the
   limit, it was not aborted, and the requests still unanswered when
   issuing stopped are no more than a queue within the limit holds. *)
let passes cfg rate (p : phase) =
  let _, tail, _ = Stats.tail p.lat_ms in
  p.failed = 0 && (not p.aborted) && tail <= cfg.limit_ms
  && float_of_int p.backlog <= Float.max 4. (rate *. cfg.limit_ms /. 1e3)

type run = {
  p1 : phase list;  (** the [r1] segments, one per round *)
  p2 : phase list;
  probes : (float * bool) list;
  max_rate : float;
  attempted : int;  (** over all phases and probes *)
  failed : int;
}

let merge (ps : phase list) =
  { lat_ms = List.concat_map (fun p -> p.lat_ms) ps;
    corpus_lat_ms = List.concat_map (fun p -> p.corpus_lat_ms) ps;
    late_ms = List.concat_map (fun p -> p.late_ms) ps;
    attempted = List.fold_left (fun a (p : phase) -> a + p.attempted) 0 ps;
    failed = List.fold_left (fun a (p : phase) -> a + p.failed) 0 ps;
    backlog = List.fold_left (fun a p -> max a p.backlog) 0 ps;
    aborted = List.exists (fun p -> p.aborted) ps }

(* The share of requests that are singles (the rest are fresh pairs). *)
let single_share cfg =
  if cfg.pair_every = 0 then 1. else 1. -. (2. /. float_of_int (cfg.pair_every + 1))

(* The share of a run's seconds spent in the fixed-rate rounds; the
   rate ladder takes most of the rest. *)
let rounds_share = 0.8

(* Seconds of one round: a key cycle at [r1], then one at [r2]. *)
let round_s cfg =
  let events = float_of_int (cycle cfg) /. single_share cfg in
  (events /. cfg.r1) +. (events /. cfg.r2)

let rounds cfg ~seconds = max 1 (int_of_float (rounds_share *. seconds /. round_s cfg))

(* How long before a request falls due the generator stops sleeping in
   the fixed-rate rounds (see [Load.run]). The ladder probes sleep: at
   their rates a polling generator would take a CPU from the daemon. *)
let spin_s = 0.001

(* The traffic of one run, possibly over several daemons in turn:
   phase numbers, fresh-program numbers and counts carry across them. *)
type gen = {
  g_cfg : config;
  g_tb : tables;
  g_tick : (unit -> unit) option;
  mutable phase_no : int;
  mutable next_fresh : int;
  mutable g_attempted : int;
  mutable g_failed : int;
  mutable g_p1 : phase list;  (** newest first *)
  mutable g_p2 : phase list;
}

let gen ?tick cfg tb =
  { g_cfg = cfg; g_tb = tb; g_tick = tick; phase_no = 0; next_fresh = 0;
    g_attempted = 0; g_failed = 0; g_p1 = []; g_p2 = [] }

let gen_phase g ?abort_after ?spin_s ~socket conns rate keys =
  g.phase_no <- g.phase_no + 1;
  let reqs, ids, nf =
    schedule g.g_cfg ~seed:g.g_tb.seed ~phase:g.phase_no ~rate ~keys ~next_fresh:g.next_fresh
  in
  g.next_fresh <- nf;
  prepare_fresh g.g_tb ids;
  let p = run_phase ?abort_after ?spin_s ?tick:g.g_tick ~socket g.g_tb conns reqs in
  g.g_attempted <- g.g_attempted + p.attempted;
  g.g_failed <- g.g_failed + p.failed;
  p

(* [n] rounds of one segment at [r1] and one at [r2] on the daemon at
   [socket]. Each segment is one whole key cycle, so every segment asks
   for every cell equally often and holds the same number of requests:
   each round measures both rates on the same key mix, and the tail of
   every segment lands on the same percentile. Alternating the rates
   makes a slow stretch of the host weigh on both alike. *)
let run_rounds g ~socket n =
  let cfg = g.g_cfg in
  let conns = ref (connect socket) in
  for _ = 1 to n do
    let i = List.length g.g_p1 + 1 in
    let keys salt = corpus_keys cfg ~seed:g.g_tb.seed ~salt (cycle cfg) in
    g.g_p1 <- gen_phase g ~spin_s ~socket conns cfg.r1 (keys (2 * i - 1)) :: g.g_p1;
    g.g_p2 <- gen_phase g ~spin_s ~socket conns cfg.r2 (keys (2 * i)) :: g.g_p2
  done;
  close_conns !conns

(* The rate ladder for [max_rate_rps] on the daemon at [socket], after
   the rounds: an up/down staircase of probes from [start]. It moves up
   after a pass and down after a failure, by [step] at first; at every
   reversal the step is square-rooted until it is 4%. The staircase then
   oscillates about the highest rate that meets the limit, and the
   estimate is the median of the rates probed at the 4% step once it
   has turned. An unlucky probe moves it one step, and the next probes
   move it back. *)
let run_ladder g ~socket ~start ~step =
  let cfg = g.g_cfg and tb = g.g_tb in
  let conns = ref (connect socket) in
  let probes = ref [] in
  let probe rate =
    let singles = max 50 (int_of_float (rate *. probe_s *. single_share cfg)) in
    let p =
      gen_phase g ~socket conns ~abort_after:(3. *. cfg.limit_ms /. 1e3) rate
        (corpus_keys cfg ~seed:tb.seed ~salt:(100 + g.phase_no) singles)
    in
    let ok = passes cfg rate p in
    probes := (rate, ok) :: !probes;
    ok
  in
  let rate = ref start and step = ref step and last = ref None in
  let turned = ref false and settled = ref [] in
  for _ = 1 to ladder_probes do
    let ok = probe !rate in
    (match !last with
    | Some l when l <> ok ->
      turned := true;
      step := if sqrt !step < 1.05 then min_step else sqrt !step
    | _ -> ());
    if !turned && !step = min_step then settled := !rate :: !settled;
    last := Some ok;
    rate := if ok then !rate *. !step else !rate /. !step
  done;
  (* A staircase that never settled: its last four rates. *)
  let last4 = List.filteri (fun i _ -> i < 4) (List.map fst !probes) in
  let max_rate = Stats.median (if !settled <> [] then !settled else last4) in
  close_conns !conns;
  (List.rev !probes, max_rate)

let finish g ~probes ~max_rate =
  { p1 = List.rev g.g_p1; p2 = List.rev g.g_p2; probes; max_rate;
    attempted = g.g_attempted; failed = g.g_failed }

(* ------------------------------ e2e ------------------------------ *)

(* What the three set-ups of a run measure. *)
type setups = {
  times : float list;
  warm_rates : float list;  (** corpus cells per second of each cold warm-up *)
  cold_rate : float;
      (** cells per second from each cell's fastest cold service over the
          set-ups, [jobs] at a time *)
  burst_rps : float;  (** median throughput of the set-up bursts *)
  fig8_served : float * float;
  warm_attempted : int;
  warm_failed : int;
}

(* Three set-ups, each starting a daemon that then serves
   [work ~socket i], its share of the run: a run averages over daemon
   processes, whose speed differs from one start to the next. The last
   daemon is returned still running. *)
let three_setups ~gmtc ~dir cfg tb work =
  let ss =
    List.init 3 (fun i ->
        let t0 = Unix.gettimeofday () in
        let s = setup ~gmtc ~dir cfg tb in
        let dt = Unix.gettimeofday () -. t0 in
        work ~socket:s.daemon.Daemon.socket i;
        if i < 2 then Daemon.stop s.daemon;
        (dt, s))
  in
  let _, last = List.nth ss 2 in
  let fastest =
    List.fold_left
      (fun acc (_, (s : setup)) -> Array.map2 Float.min acc s.cell_s)
      (Array.make n_corpus infinity) ss
  in
  ( {
      times = List.map fst ss;
      warm_rates = List.map (fun (_, (s : setup)) -> float_of_int n_corpus /. s.warm_s) ss;
      cold_rate = float_of_int (n_corpus * jobs) /. Array.fold_left ( +. ) 0. fastest;
      burst_rps = Stats.median (List.map (fun (_, (s : setup)) -> s.burst_rps) ss);
      fig8_served = last.fig8;
      warm_attempted = 3 * (n_corpus + (burst_cycles * cycle cfg));
      warm_failed = List.fold_left (fun a (_, (s : setup)) -> a + s.warm_failed) 0 ss;
    },
    last.daemon )

(* A share of [total] rounds for the [i]th of three daemons. *)
let share total i = (total + 2 - i) / 3

type e2e = {
  su : setups;
  traffic : run;
  rss_mb : float;
  attempted : int;
  failed : int;
}

(* Each daemon serves its share of the rounds; the last one also serves
   the ladder. *)
let e2e ~gmtc ~dir ~seed ~seconds cfg =
  let tb = tables ~seed in
  let g = gen cfg tb in
  let total = rounds cfg ~seconds in
  let su, daemon =
    three_setups ~gmtc ~dir cfg tb (fun ~socket i -> run_rounds g ~socket (share total i))
  in
  (* Hit traffic can be sustained at 70-90% of the saturation throughput
     the set-up bursts measure, so gmtd-hit's staircase starts there
     with a step of 2^(1/4). Fresh compiles hold gmtd-mixed far below
     it: its staircase starts from [r2] and doubles or halves. *)
  let start, step =
    if cfg.pair_every = 0 then (su.burst_rps, sqrt (sqrt 2.))
    else if passes cfg cfg.r2 (merge g.g_p2) then (2. *. cfg.r2, 2.)
    else (cfg.r2 /. 2., 2.)
  in
  let probes, max_rate = run_ladder g ~socket:daemon.Daemon.socket ~start ~step in
  let traffic = finish g ~probes ~max_rate in
  let rss = Daemon.peak_rss_mb daemon.Daemon.pid in
  Daemon.stop daemon;
  { su; traffic; rss_mb = rss;
    attempted = traffic.attempted + su.warm_attempted;
    failed = traffic.failed + su.warm_failed }

(* -------------------------- closed loop -------------------------- *)

(* [gmtd-hit-closed] serves gmtd-hit's read path without the open loop.
   A pass sends one key cycle of [check]s, all due at once, pipelined
   over the first one or both of a daemon's two persistent connections.
   gmtd serves a connection's frames in order, so a request's service
   time runs from the previous reply on its connection to its own: the
   round trip of the hit path, with no queue wait. A pass is a fixed
   amount of work, so a run takes its timings like [matrix] does, from
   the favourable quartile of its passes (README.md). *)
type pass = {
  service_ms : float list;  (** each correct reply's service time *)
  pass_s : float;  (** until the last reply *)
  p_attempted : int;
  p_failed : int;
}

let closed_pass cfg tb ~socket ~salt all n_conns =
  let conns = Array.sub !all 0 n_conns in
  let keys = corpus_keys cfg ~seed:tb.seed ~salt (cycle cfg) in
  let reqs = Array.mapi (fun i key -> { Load.due = 0.; conn = i mod n_conns; key }) keys in
  let r = Load.run conns reqs (frame tb) in
  if not (Load.drained conns) then begin
    close_conns !all;
    all := connect socket
  end;
  let prev = Array.make n_conns r.Load.origin in
  let service = ref [] and failed = ref 0 in
  Array.iteri
    (fun i (q : Load.sreq) ->
      let verdict =
        if Float.is_nan r.Load.done_.(i) then Some "no reply before the drain deadline"
        else judge (expect tb q.Load.key) r.Load.replies.(i)
      in
      match verdict with
      | None ->
        service := ((r.Load.done_.(i) -. prev.(q.Load.conn)) *. 1e3) :: !service;
        prev.(q.Load.conn) <- r.Load.done_.(i)
      | Some why ->
        incr failed;
        Printf.eprintf "[perfbench] FAILED request check %s (closed pass, %d connections): %s\n%!"
          (label tb q.Load.key) n_conns why)
    reqs;
  { service_ms = !service;
    pass_s = Array.fold_left Float.max r.Load.origin prev -. r.Load.origin;
    p_attempted = Array.length reqs; p_failed = !failed }

(* Seconds one round (a pass on one connection, then one on two) takes
   on a 2-CPU host; the round count is fixed by the run length, so every
   run does the same work. *)
let closed_round_s = 1.2

type closed = {
  c_su : setups;
  c_p1 : pass list;  (** one connection *)
  c_p2 : pass list;  (** two connections *)
  c_rss_mb : float;
  c_attempted : int;
  c_failed : int;
}

let closed_e2e ~gmtc ~dir ~seed ~seconds cfg =
  let tb = tables ~seed in
  let total = max 3 (int_of_float (rounds_share *. seconds /. closed_round_s)) in
  let p1 = ref [] and p2 = ref [] in
  let su, daemon =
    three_setups ~gmtc ~dir cfg tb (fun ~socket i ->
        let conns = ref (connect socket) in
        for _ = 1 to share total i do
          let k = List.length !p1 + 1 in
          p1 := closed_pass cfg tb ~socket ~salt:((2 * k) - 1) conns 1 :: !p1;
          p2 := closed_pass cfg tb ~socket ~salt:(2 * k) conns 2 :: !p2
        done;
        close_conns !conns)
  in
  let rss = Daemon.peak_rss_mb daemon.Daemon.pid in
  Daemon.stop daemon;
  let sum f = List.fold_left (fun a p -> a + f p) 0 (!p1 @ !p2) in
  { c_su = su; c_p1 = List.rev !p1; c_p2 = List.rev !p2; c_rss_mb = rss;
    c_attempted = sum (fun p -> p.p_attempted) + su.warm_attempted;
    c_failed = sum (fun p -> p.p_failed) + su.warm_failed }

(* ----------------------------- traced ----------------------------- *)

let num = function Some (Json.Num f) -> f | _ -> 0.

let counters j =
  let cache k = num (Option.bind (Json.member "cache" j) (Json.member k)) in
  let tele k =
    num
      (Option.bind (Json.member "telemetry" j) (fun t ->
           Option.bind (Json.member "counters" t) (Json.member k)))
  in
  [ ("hits", cache "hits"); ("misses", cache "misses"); ("stores", cache "stores");
    ("evictions", cache "evictions"); ("leads", tele "farm.singleflight.leads");
    ("waits", tele "farm.singleflight.waits"); ("busy", tele "req.busy") ]

type traced = {
  tr : run;
  deltas : (string * float) list;  (** daemon counters over the timed window *)
  rtt_hit : float list;  (** us *)
  rtt_miss : float list;
  decode : float list;
  encode : float list;
  fingerprint : float list;
  lookup : float list;
  render_hit : float list;
  parse : float list;
  render_miss : float list;  (** ms *)
  unattributed : float list;
  overhead : float;
  gc : Gcev.t;
  window_s : float;
}

let us f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, (Unix.gettimeofday () -. t0) *. 1e6)

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

(* One closed-loop round trip of request [key] on a blocking
   connection: the reply's cache status and the time in us. A wrong
   reply aborts the traced run. *)
let rtt tb fd key =
  let reply, dt =
    us (fun () ->
        write_all fd (frame tb key);
        Proto.read_frame fd)
  in
  match reply with
  | Ok (j, _) -> (
    match judge_json (expect tb key) j with
    | None -> (Option.value (Proto.str_field j "cache") ~default:"", dt)
    | Some why -> failwith (Printf.sprintf "probe %s: %s" (label tb key) why))
  | Error _ -> failwith "probe: malformed or missing reply"

(* The server's reply document for an outcome (Server.outcome_json). *)
let outcome_json (o : Render.outcome) =
  Json.Obj
    [ ("ok", Json.Bool true); ("out", Json.Str o.Render.out);
      ("err", Json.Str o.Render.err);
      ("exit", Json.Num (float_of_int o.Render.code));
      ("cache", Json.Str o.Render.cache_status) ]

(* One warm [check] replayed in-process through the handler's public
   steps, each timed (us): [Proto.read_frame] of the request frame,
   [Velocity.fingerprint], [Cache.find], [Render.check_text], and the
   reply's [Proto.write_frame] into [sink]. [whole] times the same
   steps under one timer, the cost the split adds. *)
type steps = { dec : float; fp : float; look : float; hit : float; enc : float; whole : float }

let replay_hit ~warm ~frame_file ~sink:(a, b) (c : cell) frame =
  Out_channel.with_open_bin frame_file (fun oc -> output_string oc frame);
  let drain = Bytes.create 65536 in
  let check () =
    Render.check_text ~cache:warm ~technique:c.technique ~coco:c.coco ~threads:2 c.text
  in
  let ffd = Unix.openfile frame_file [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let rewind () = ignore (Unix.lseek ffd 0 Unix.SEEK_SET) in
  let one_timer () =
    rewind ();
    let _, dt =
      us (fun () ->
          ignore (Proto.read_frame ffd);
          Proto.write_frame a (outcome_json (check ())))
    in
    ignore (Unix.read b drain 0 (Bytes.length drain));
    dt
  in
  (* Warms the cache entry and the frame's pages first. *)
  ignore (one_timer ());
  rewind ();
  let _, dec =
    us (fun () ->
        match Proto.read_frame ffd with
        | Ok (j, payload) ->
          ignore
            ( Proto.str_field j "op", Proto.str_field j "technique",
              Proto.bool_field j "coco", Proto.int_field j "threads" );
          payload
        | Error _ -> failwith "replay: frame does not decode")
  in
  let key, fp =
    us (fun () -> V.fingerprint ~n_threads:2 ~coco:c.coco c.technique ~canonical:c.text)
  in
  let _, look = us (fun () -> Cache.find warm key) in
  let o, hit = us check in
  if o.Render.cache_status <> "hit" then failwith "replay: warm cache missed";
  let _, enc = us (fun () -> Proto.write_frame a (outcome_json o)) in
  ignore (Unix.read b drain 0 (Bytes.length drain));
  let whole = one_timer () in
  Unix.close ffd;
  { dec; fp; look; hit; enc; whole }

let traced ~gmtc ~dir ~seed ~seconds cfg =
  let tb = tables ~seed in
  let s = setup ~gmtc ~dir ~events_dir:dir cfg tb in
  let socket = s.daemon.Daemon.socket in
  let gc = Gcev.child ~dir ~pid:s.daemon.Daemon.pid in
  let before = counters (Daemon.stats s.daemon) in
  Gcev.reset gc;
  let t0 = Unix.gettimeofday () in
  let g = gen ~tick:(fun () -> Gcev.poll gc) cfg tb in
  run_rounds g ~socket (rounds cfg ~seconds);
  let tr = finish g ~probes:[] ~max_rate:cfg.r2 in
  Gcev.poll gc;
  Gcev.close gc;
  let window_s = Unix.gettimeofday () -. t0 in
  let after = counters (Daemon.stats s.daemon) in
  let deltas = List.map2 (fun (k, a) (_, b) -> (k, a -. b)) after before in
  (* Closed-loop probes: hit keys drawn like the traffic, fresh programs
     numbered after every one the traffic used. *)
  let keys = corpus_keys cfg ~seed ~salt:1000 200 in
  let fresh_ids = List.init 16 (fun i -> 100_000 + i) in
  prepare_fresh tb fresh_ids;
  let fd = Daemon.connect socket in
  (* On gmtd-mixed an evicted corpus key is a miss: only hits count. *)
  let hit_rtts = Array.map (rtt tb fd) keys in
  let miss_rtts =
    List.map
      (fun k ->
        match rtt tb fd (n_corpus + k) with
        | "miss", dt -> dt
        | st, _ -> failwith ("probe: fresh program served as " ^ st))
      fresh_ids
  in
  Unix.close fd;
  (* In-process replay of the handler's public steps on the same bytes. *)
  let warm = Cache.create ~mem_capacity:cfg.mem_capacity () in
  let frame_file = Filename.concat dir "frame.bin" in
  let sink = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let hits =
    List.filter_map
      (fun (key, (status, rtt_us)) ->
        if status <> "hit" then None
        else Some (rtt_us, replay_hit ~warm ~frame_file ~sink tb.cells.(key) (frame tb key)))
      (List.combine (Array.to_list keys) (Array.to_list hit_rtts))
  in
  Unix.close (fst sink);
  Unix.close (snd sink);
  Sys.remove frame_file;
  let steps f = List.map (fun (_, st) -> f st) hits in
  let split st = st.dec +. st.hit +. st.enc in
  let parse = ref [] and render_miss = ref [] in
  List.iter
    (fun k ->
      let c, _ = Hashtbl.find tb.fresh_cells k in
      let _, t_parse = us (fun () -> Text.parse ~file:"<request>" c.text) in
      let cold = Cache.create ~mem_capacity:cfg.mem_capacity () in
      let o, t_miss =
        us (fun () ->
            Render.check_text ~cache:cold ~technique:c.technique ~coco:c.coco ~threads:2 c.text)
      in
      if o.Render.cache_status <> "miss" then failwith "replay: cold cache hit";
      parse := t_parse :: !parse;
      render_miss := (t_miss /. 1e3) :: !render_miss)
    fresh_ids;
  Daemon.stop s.daemon;
  {
    tr; deltas;
    rtt_hit = List.map fst hits;
    rtt_miss = miss_rtts;
    decode = steps (fun st -> st.dec); encode = steps (fun st -> st.enc);
    fingerprint = steps (fun st -> st.fp); lookup = steps (fun st -> st.look);
    render_hit = steps (fun st -> st.hit); parse = !parse; render_miss = !render_miss;
    unattributed = List.map (fun (rtt_us, st) -> rtt_us -. split st) hits;
    overhead = Stats.median (steps split) /. Stats.median (steps (fun st -> st.whole));
    gc; window_s;
  }
