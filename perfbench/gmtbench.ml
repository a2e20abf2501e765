(* gmtbench: the repository's benchmark.

     gmtbench --workload matrix|gmtd-hit-closed|gmtd-hit|gmtd-mixed --seed N --seconds S
              --trace 0|1 --gmtc PATH
     gmtbench selftest BENCHMARK.json

   The last line of stdout is the result: {"correct", "attempted",
   "failed", "metrics"}. With --trace 0 the metrics are the end-to-end
   ones, with --trace 1 the per-layer ones from a separate traced run.
   The line before it carries the provenance block (host, seed, rates,
   limit) and every metric's median, quartiles and sample count. See
   README.md in this directory. *)

module Json = Gmt_obs.Json
module S = Service_wl
module M = Matrix_wl

(* ------------------------------ output ----------------------------- *)

let rec to_buf b = function
  | Json.Null -> Buffer.add_string b "null"
  | Json.Bool x -> Buffer.add_string b (string_of_bool x)
  | Json.Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string b (Printf.sprintf "%.0f" f)
    else if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
    else Buffer.add_string b "null"
  | Json.Str s -> Buffer.add_string b (Json.escape s)
  | Json.Arr l ->
    Buffer.add_char b '[';
    List.iteri (fun i x -> if i > 0 then Buffer.add_char b ','; to_buf b x) l;
    Buffer.add_char b ']'
  | Json.Obj l ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, x) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Json.escape k);
        Buffer.add_char b ':';
        to_buf b x)
      l;
    Buffer.add_char b '}'

let json_line j =
  let b = Buffer.create 4096 in
  to_buf b j;
  Buffer.contents b

(* ----------------------------- metrics ----------------------------- *)

(* Name, unit and direction of every metric, in BENCHMARK.json order. *)
let end_to_end =
  [ ("setup_s", "s"); ("cells_per_s", "cells/s"); ("sim_speedup_geomean", "x");
    ("dyn_comm_share", "ratio"); ("p50_ms.r1", "ms"); ("tail_ms.r1", "ms");
    ("p50_ms.r2", "ms"); ("tail_ms.r2", "ms"); ("max_rate_rps", "req/s");
    ("ok_share", "ratio"); ("peak_rss_mb", "MB") ]

let per_layer =
  [ ("analysis.profile_ms", "ms"); ("pdg.build_ms", "ms"); ("pdg.arcs", "count");
    ("pdg.mem_arcs_pruned", "count"); ("sched.partition_ms", "ms");
    ("coco.optimize_ms", "ms"); ("coco.iterations", "count"); ("mtcg.plan_ms", "ms");
    ("mtcg.generate_ms", "ms"); ("mtcg.comm_sites", "count"); ("opt.cleanup_ms", "ms");
    ("verify.run_ms", "ms"); ("ir.validate_ms", "ms"); ("machine.oracle_ms", "ms");
    ("machine.mt_interp_ms", "ms"); ("machine.sim_ms", "ms");
    ("machine.sim_mcycles_per_s", "Mcycles/s"); ("core.unattributed_ms", "ms");
    ("exec.busy_share", "ratio"); ("exec.imbalance", "ratio");
    ("service.rtt_us.hit", "us"); ("service.rtt_us.miss", "us");
    ("proto.decode_us", "us"); ("proto.encode_us", "us");
    ("cache.fingerprint_us", "us"); ("cache.lookup_us", "us"); ("render.hit_us", "us");
    ("frontend.parse_us", "us"); ("render.miss_ms", "ms");
    ("service.unattributed_us", "us"); ("cache.hit_ratio", "ratio");
    ("cache.stores", "count"); ("cache.evictions", "count");
    ("singleflight.leads", "count"); ("singleflight.waits", "count");
    ("service.busy", "count"); ("gc.minor_mb", "MB/s");
    ("gc.major_collections", "1/s"); ("gc.stw_ms", "ms/s");
    ("gen.late_p99_ms", "ms"); ("trace.overhead_ratio", "ratio") ]

(* A measured metric: its value plus the spread behind it. [spread]
   summarises the values it was chosen from (one per segment, pass or
   sample); a tail also records its percentile and how many samples
   each segment held. *)
type m = {
  value : float;
  spread : Stats.summary option;
  tail : (float * int) option;
}

let exact v = { value = v; spread = None; tail = None }
let med xs = { value = Stats.median xs; spread = Some (Stats.summary xs); tail = None }

(* Timings taken once per pass or set-up of a fixed amount of work: the
   run reports the favourable quartile (Stats.best_time / best_rate). *)
let seg_time xs = { value = Stats.best_time xs; spread = Some (Stats.summary xs); tail = None }
let seg_rate xs = { value = Stats.best_rate xs; spread = Some (Stats.summary xs); tail = None }

let tail xs =
  let p, v, n = Stats.tail xs in
  { value = v; spread = Some (Stats.summary xs); tail = Some (p, n) }

(* Per-segment tails, each at the same percentile (segments of a
   workload hold equally many requests), summarised by [over]. *)
let seg_tail over segs =
  let ts = List.map Stats.tail segs in
  let p, _, n = match ts with t :: _ -> t | [] -> (nan, nan, 0) in
  { (over (List.map (fun (_, v, _) -> v) ts)) with tail = Some (p, n) }

let spread_json m =
  (match m.spread with
  | None -> []
  | Some (s : Stats.summary) ->
    [ ("median", Json.Num s.Stats.median); ("q1", Json.Num s.Stats.q1);
      ("q3", Json.Num s.Stats.q3); ("n", Json.Num (float_of_int s.Stats.n)) ])
  @
  match m.tail with
  | Some (p, n) -> [ ("percentile", Json.Num p); ("samples_per_segment", Json.Num (float_of_int n)) ]
  | None -> []

(* -------------------------- provenance ---------------------------- *)

let command_line prog args =
  try
    let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> line
    | _ -> None
  with _ -> None

(* Digest of the program's sources: the checkout the benchmark runs in
   need not be a git repository, so this identifies the code measured. *)
let source_digest () =
  let files = ref [] in
  let rec walk d =
    match Sys.readdir d with
    | entries ->
      Array.iter
        (fun e ->
          let p = Filename.concat d e in
          if Sys.is_directory p then walk p
          else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then
            files := p :: !files)
        entries
    | exception Sys_error _ -> ()
  in
  walk "lib";
  walk "bin";
  let b = Buffer.create 65536 in
  List.iter
    (fun p ->
      Buffer.add_string b p;
      Buffer.add_string b (Digest.to_hex (Digest.file p)))
    (List.sort compare !files);
  Digest.to_hex (Digest.string (Buffer.contents b))

let self_peak_rss_mb () = Daemon.peak_rss_mb (Unix.getpid ())

(* (steal, total) jiffies of the host's "cpu" line in /proc/stat: the
   time a hypervisor ran other guests while this one wanted the CPU.
   Reported per run, it tells a slow run on a busy host from a slow
   program. *)
let cpu_jiffies () =
  match In_channel.with_open_text "/proc/stat" input_line with
  | line -> (
    match String.split_on_char ' ' line |> List.filter (( <> ) "") with
    | "cpu" :: fields ->
      let xs = List.filter_map int_of_string_opt fields in
      let steal = match List.nth_opt xs 7 with Some s -> s | None -> 0 in
      Some (steal, List.fold_left ( + ) 0 xs)
    | _ -> None)
  | exception _ -> None

let host () =
  Json.Obj
    [ ( "nproc",
        match Option.bind (command_line "nproc" []) int_of_string_opt with
        | Some n -> Json.Num (float_of_int n)
        | None -> Json.Null );
      ("recommended_domain_count", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ( "commit",
        match
          if Sys.file_exists ".git" then command_line "git" [ "rev-parse"; "HEAD" ]
          else None
        with
        | Some c -> Json.Str c
        | None -> Json.Str "unknown (not a git checkout)" );
      ("source_digest", Json.Str (source_digest ())) ]

(* ------------------------------ runs ------------------------------ *)

type outcome = {
  metrics : (string * m) list;
  attempted : int;
  failed : int;
  config : (string * Json.t) list;
}

let ok_share ~attempted ~failed =
  exact (1. -. (float_of_int failed /. float_of_int (max 1 attempted)))

let matrix_e2e ~seed ~seconds =
  let r = M.e2e ~seed ~seconds in
  let rate1 = seg_rate r.M.rate_r1 and rate2 = seg_rate r.M.rate_r2 in
  {
    metrics =
      [ ("setup_s", med r.M.setup_times); ("cells_per_s", rate2);
        ("sim_speedup_geomean", exact r.M.speedup);
        ("dyn_comm_share", exact r.M.comm_share); ("p50_ms.r1", med r.M.lat_r1);
        ("tail_ms.r1", tail r.M.lat_r1); ("p50_ms.r2", med r.M.lat_r2);
        ("tail_ms.r2", tail r.M.lat_r2);
        ("max_rate_rps", if rate1.value > rate2.value then rate1 else rate2);
        ("ok_share", ok_share ~attempted:r.M.attempted ~failed:r.M.failed);
        ("peak_rss_mb", exact (self_peak_rss_mb ())) ];
    attempted = r.M.attempted;
    failed = r.M.failed;
    config =
      [ ("r1", Json.Str "jobs=1"); ("r2", Json.Str (Printf.sprintf "jobs=%d" M.nproc));
        ("cells_per_pass", Json.Num 55.) ];
  }

let service_config (cfg : S.config) =
  [ ("r1_rps", Json.Num cfg.S.r1); ("r2_rps", Json.Num cfg.S.r2);
    ("tail_limit_ms", Json.Num cfg.S.limit_ms);
    ("mem_capacity", Json.Num (float_of_int cfg.S.mem_capacity));
    ("fresh_pair_every", Json.Num (float_of_int cfg.S.pair_every));
    ("key_epoch", Json.Num (float_of_int cfg.S.epoch));
    ("daemon_jobs", Json.Num (float_of_int S.jobs)) ]

let late_p99 (r : S.run) =
  Stats.tail_at (List.concat_map (fun (p : S.phase) -> p.S.late_ms) (r.S.p1 @ r.S.p2)) 99.

(* Service latency metrics are over the corpus-cell requests: on
   gmtd-hit that is every request; on gmtd-mixed it is the read path
   while fresh compiles and cache writes run beside it (the latency
   over all requests is in the provenance block). *)
let lat segs = List.map (fun (p : S.phase) -> p.S.corpus_lat_ms) segs

(* Service latency per round: every round's segment at a rate is one
   whole key cycle, so each round measures the rate on the same key mix
   and its tail lands on the same percentile at both rates. A run
   reports the median over rounds: a stall of the host in one round
   moves it little, a change that slows every round moves it fully. *)
let round_p50 segs = med (List.map Stats.median (lat segs))

(* Cold cells per second through the daemon, from each cell's fastest
   cold service over the set-ups; the spread is of the set-ups' rates. *)
let cold_rate (su : S.setups) = { (seg_rate su.S.warm_rates) with value = su.S.cold_rate }

let service_e2e ~gmtc ~dir ~seed ~seconds cfg =
  let r = S.e2e ~gmtc ~dir ~seed ~seconds cfg in
  let t = r.S.traffic in
  let late segs = List.concat_map (fun (p : S.phase) -> p.S.late_ms) segs in
  let speedup, comm_share = r.S.su.S.fig8_served in
  {
    metrics =
      [ ("setup_s", med r.S.su.S.times); ("cells_per_s", cold_rate r.S.su);
        ("sim_speedup_geomean", exact speedup); ("dyn_comm_share", exact comm_share);
        ("p50_ms.r1", round_p50 t.S.p1); ("tail_ms.r1", seg_tail med (lat t.S.p1));
        ("p50_ms.r2", round_p50 t.S.p2); ("tail_ms.r2", seg_tail med (lat t.S.p2));
        ("max_rate_rps", exact t.S.max_rate);
        ("ok_share", ok_share ~attempted:r.S.attempted ~failed:r.S.failed);
        ("peak_rss_mb", exact r.S.rss_mb) ];
    attempted = r.S.attempted;
    failed = r.S.failed;
    config =
      service_config cfg
      @ [ ("rounds", Json.Num (float_of_int (List.length t.S.p1)));
          ("burst_rps", Json.Num r.S.su.S.burst_rps);
          ("gen_late_p99_ms", Json.Num (late_p99 t));
          ("gen_late_p99_ms.r1", Json.Num (Stats.tail_at (late t.S.p1) 99.));
          ("gen_late_p99_ms.r2", Json.Num (Stats.tail_at (late t.S.p2) 99.));
          ( "pooled",
            let pt segs =
              let p, v, n = Stats.tail (List.concat (lat segs)) in
              Json.Obj [ ("percentile", Json.Num p); ("ms", Json.Num v);
                         ("n", Json.Num (float_of_int n)) ]
            in
            Json.Obj [ ("tail.r1", pt t.S.p1); ("tail.r2", pt t.S.p2) ] );
          ( "all_requests",
            let all segs = List.concat_map (fun (p : S.phase) -> p.S.lat_ms) segs in
            let pt segs = let p, v, _ = Stats.tail (all segs) in
              Json.Obj [ ("percentile", Json.Num p); ("ms", Json.Num v) ] in
            Json.Obj
              [ ("p50_ms.r1", Json.Num (Stats.median (all t.S.p1))); ("tail.r1", pt t.S.p1);
                ("p50_ms.r2", Json.Num (Stats.median (all t.S.p2))); ("tail.r2", pt t.S.p2) ] );
          ( "ladder",
            Json.Arr
              (List.map
                 (fun (rate, ok) -> Json.Arr [ Json.Num rate; Json.Bool ok ])
                 t.S.probes) ) ];
  }

(* gmtd-hit-closed: p50 and tail of each pass's service times (a pass is
   one key cycle, so every pass's tail is at the same percentile), the
   lower quartile over passes; the two-connection passes' throughput,
   the upper quartile. *)
let closed_e2e ~gmtc ~dir ~seed ~seconds cfg =
  let r = S.closed_e2e ~gmtc ~dir ~seed ~seconds cfg in
  let service ps = List.map (fun (p : S.pass) -> p.S.service_ms) ps in
  let p50 ps = seg_time (List.map Stats.median (service ps)) in
  let tail ps = seg_tail seg_time (service ps) in
  let rate =
    seg_rate
      (List.map (fun (p : S.pass) -> float_of_int p.S.p_attempted /. p.S.pass_s) r.S.c_p2)
  in
  let speedup, comm_share = r.S.c_su.S.fig8_served in
  {
    metrics =
      [ ("setup_s", med r.S.c_su.S.times); ("cells_per_s", cold_rate r.S.c_su);
        ("sim_speedup_geomean", exact speedup); ("dyn_comm_share", exact comm_share);
        ("p50_ms.r1", p50 r.S.c_p1); ("tail_ms.r1", tail r.S.c_p1);
        ("p50_ms.r2", p50 r.S.c_p2); ("tail_ms.r2", tail r.S.c_p2);
        ("max_rate_rps", rate);
        ("ok_share", ok_share ~attempted:r.S.c_attempted ~failed:r.S.c_failed);
        ("peak_rss_mb", exact r.S.c_rss_mb) ];
    attempted = r.S.c_attempted;
    failed = r.S.c_failed;
    config =
      service_config cfg
      @ [ ("r1", Json.Str "1 connection, closed loop");
          ("r2", Json.Str "2 connections, closed loop");
          ("passes_per_level", Json.Num (float_of_int (List.length r.S.c_p1)));
          ("burst_rps", Json.Num r.S.c_su.S.burst_rps) ];
  }

let gc_metrics (g : Gcev.t) window =
  [ ("gc.minor_mb", exact (float_of_int g.Gcev.minor_bytes /. 1e6 /. window));
    ("gc.major_collections", exact (float_of_int (Gcev.major_cycles g) /. window));
    ("gc.stw_ms", exact (Int64.to_float g.Gcev.stw_ns /. 1e6 /. window)) ]

let matrix_traced ~seed ~seconds =
  let t = M.traced ~seed ~seconds in
  let per f = med (List.map f t.M.t_passes) in
  let count f = med (List.map (fun l -> float_of_int (f l)) t.M.t_passes) in
  let cells = 55 * List.length t.M.t_passes in
  {
    metrics =
      [ ("analysis.profile_ms", per (fun l -> l.M.profile));
        ("pdg.build_ms", per (fun l -> l.M.pdg)); ("pdg.arcs", count (fun l -> l.M.arcs));
        ("pdg.mem_arcs_pruned", count (fun l -> l.M.pruned));
        ("sched.partition_ms", per (fun l -> l.M.partition));
        ("coco.optimize_ms", per (fun l -> l.M.coco));
        ("coco.iterations", count (fun l -> l.M.coco_iters));
        ("mtcg.plan_ms", per (fun l -> l.M.plan));
        ("mtcg.generate_ms", per (fun l -> l.M.generate));
        ("mtcg.comm_sites", count (fun l -> l.M.comm_sites));
        ("opt.cleanup_ms", per (fun l -> l.M.cleanup));
        ("verify.run_ms", per (fun l -> l.M.verify));
        ("ir.validate_ms", per (fun l -> l.M.validate));
        ("machine.oracle_ms", per (fun l -> l.M.oracle));
        ("machine.mt_interp_ms", per (fun l -> l.M.mt_interp));
        ("machine.sim_ms", per (fun l -> l.M.sim));
        ( "machine.sim_mcycles_per_s",
          per (fun l -> float_of_int l.M.cycles /. (l.M.sim *. 1e3)) );
        ("core.unattributed_ms", per (fun l -> l.M.cell_wall -. M.named_ms l));
        ("exec.busy_share", med (List.map fst t.M.t_fanout));
        ("exec.imbalance", med (List.map snd t.M.t_fanout));
        ("trace.overhead_ratio", exact t.M.t_overhead) ]
      @ gc_metrics t.M.t_gc t.M.t_window_s;
    attempted = cells;
    failed = 0;
    config =
      [ ("replay_passes", Json.Num (float_of_int (List.length t.M.t_passes)));
        ("gc_lost_events", Json.Num (float_of_int t.M.t_gc.Gcev.lost)) ];
  }

let service_traced ~gmtc ~dir ~seed ~seconds cfg =
  let t = S.traced ~gmtc ~dir ~seed ~seconds cfg in
  let d k = List.assoc k t.S.deltas in
  let lookups = d "hits" +. d "misses" in
  {
    metrics =
      [ ("service.rtt_us.hit", med t.S.rtt_hit); ("service.rtt_us.miss", med t.S.rtt_miss);
        ("proto.decode_us", med t.S.decode); ("proto.encode_us", med t.S.encode);
        ("cache.fingerprint_us", med t.S.fingerprint); ("cache.lookup_us", med t.S.lookup);
        ("render.hit_us", med t.S.render_hit); ("frontend.parse_us", med t.S.parse);
        ("render.miss_ms", med t.S.render_miss);
        ("service.unattributed_us", med t.S.unattributed);
        ("cache.hit_ratio", exact (if lookups > 0. then d "hits" /. lookups else 0.));
        ("cache.stores", exact (d "stores")); ("cache.evictions", exact (d "evictions"));
        ("singleflight.leads", exact (d "leads")); ("singleflight.waits", exact (d "waits"));
        ("service.busy", exact (d "busy"));
        ("gen.late_p99_ms", exact (late_p99 t.S.tr));
        ("trace.overhead_ratio", exact t.S.overhead) ]
      @ gc_metrics t.S.gc t.S.window_s;
    attempted = t.S.tr.S.attempted;
    failed = t.S.tr.S.failed;
    config =
      service_config cfg @ [ ("gc_lost_events", Json.Num (float_of_int t.S.gc.Gcev.lost)) ];
  }

(* ------------------------------ main ------------------------------ *)

let workloads = [ "matrix"; "gmtd-hit"; "gmtd-hit-closed"; "gmtd-mixed" ]

let emit ~workload ~seed ~seconds ~trace ~steal o =
  let table = if trace then per_layer else end_to_end in
  let measured, metrics =
    List.fold_right
      (fun (name, unit) (measured, acc) ->
        match List.assoc_opt name o.metrics with
        | Some m -> (name :: measured, (name, unit, m) :: acc)
        (* A layer this workload's run does not call: reported as 0. *)
        | None -> (measured, (name, unit, exact 0.) :: acc))
      table ([], [])
  in
  let detail =
    Json.Obj
      (List.map
         (fun (name, unit, m) ->
           ( name,
             Json.Obj
               ([ ("value", Json.Num m.value); ("unit", Json.Str unit) ] @ spread_json m) ))
         metrics)
  in
  let failed_share = float_of_int o.failed /. float_of_int (max 1 o.attempted) in
  print_endline
    (json_line
       (Json.Obj
          [ ("perfbench", Json.Str "provenance");
            ("workload", Json.Str workload); ("seed", Json.Num (float_of_int seed));
            ("seconds", Json.Num seconds); ("trace", Json.Bool trace); ("host", host ());
            ("config", Json.Obj o.config);
            ("attempted", Json.Num (float_of_int o.attempted));
            ("failed", Json.Num (float_of_int o.failed));
            ("failed_share", Json.Num failed_share);
            ("host_steal_share", match steal with Some x -> Json.Num x | None -> Json.Null);
            ("measured", Json.Arr (List.map (fun n -> Json.Str n) measured));
            ("metrics", detail) ]));
  List.iter
    (fun (name, unit, m) -> Printf.eprintf "[perfbench] %-28s %14.6g %s\n" name m.value unit)
    metrics;
  print_endline
    (json_line
       (Json.Obj
          [ ("correct", Json.Bool (o.failed = 0));
            ("attempted", Json.Num (float_of_int o.attempted));
            ("failed", Json.Num (float_of_int o.failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, unit, m) ->
                     (name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str unit) ]))
                   metrics) ) ]))

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let run ~workload ~seed ~seconds ~trace ~gmtc =
  let dir = ".perfbench" in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  at_exit Daemon.stop_all;
  let stop _ = Daemon.stop_all (); exit 1 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let service cfg =
    if trace then service_traced ~gmtc ~dir ~seed ~seconds cfg
    else service_e2e ~gmtc ~dir ~seed ~seconds cfg
  in
  let jiffies0 = cpu_jiffies () in
  let o =
    match workload with
    | "matrix" -> if trace then matrix_traced ~seed ~seconds else matrix_e2e ~seed ~seconds
    | "gmtd-hit" -> service S.hit
    (* The closed loop serves gmtd-hit's read path: its traced run is
       gmtd-hit's. *)
    | "gmtd-hit-closed" ->
      if trace then service_traced ~gmtc ~dir ~seed ~seconds S.hit
      else closed_e2e ~gmtc ~dir ~seed ~seconds S.hit
    | "gmtd-mixed" -> service S.mixed
    | w -> failwith ("unknown workload " ^ w)
  in
  let steal =
    match (jiffies0, cpu_jiffies ()) with
    | Some (s0, t0), Some (s1, t1) when t1 > t0 ->
      Some (float_of_int (s1 - s0) /. float_of_int (t1 - t0))
    | _ -> None
  in
  emit ~workload ~seed ~seconds ~trace ~steal o;
  Daemon.stop_all ();
  rm_rf dir

let () =
  match Array.to_list Sys.argv with
  | _ :: "selftest" :: [ bench_json ] -> Selftest.run ~end_to_end ~per_layer ~workloads bench_json
  | _ :: args ->
    let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref false in
    let gmtc = ref "_build/default/bin/gmtc.exe" in
    let rec parse = function
      | "--workload" :: v :: rest -> workload := v; parse rest
      | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
      | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
      | "--trace" :: v :: rest -> trace := v = "1"; parse rest
      | "--gmtc" :: v :: rest -> gmtc := v; parse rest
      | [] -> ()
      | a :: _ -> failwith ("unknown argument " ^ a)
    in
    parse args;
    if not (List.mem !workload workloads) then begin
      prerr_endline ("gmtbench: --workload must be one of " ^ String.concat ", " workloads);
      exit 2
    end;
    (try run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace ~gmtc:!gmtc
     with e ->
       Daemon.stop_all ();
       Printf.eprintf "gmtbench: %s\n" (Printexc.to_string e);
       exit 1)
  | [] -> exit 2
