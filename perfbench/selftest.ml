(* The benchmark's own checks (run by [dune runtest]):
   - BENCHMARK.json names are [A-Za-z0-9_.-]+, its workloads are ones
     this program runs, and it lists exactly the metrics, with the
     units, this program reports;
   - one seed yields a byte-identical request stream, another seed a
     different one, and a key cycle asks for every cell equally often;
   - latency is counted from the schedule's due time, not from the
     send: a generator that starts late charges the delay. *)

module Json = Gmt_obs.Json
module Proto = Gmt_service.Proto

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("selftest: " ^ s); exit 1) fmt

let valid_name s =
  s <> ""
  && String.length s <= 64
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let check_names ~end_to_end ~per_layer ~workloads path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let j = match Json.parse text with Ok j -> j | Error e -> fail "%s: %s" path e in
  let list k =
    match Json.member k j with Some (Json.Arr l) -> l | _ -> fail "%s: no %S list" path k
  in
  let str k o = match Json.member k o with Some (Json.Str s) -> s | _ -> fail "missing %S" k in
  let names k = List.map (str "name") (list k) in
  List.iter
    (fun k ->
      List.iter (fun n -> if not (valid_name n) then fail "%s name %S is not [A-Za-z0-9_.-]+" k n) (names k))
    [ "workloads"; "end_to_end"; "per_layer" ];
  let units k = List.map (fun o -> (str "name" o, str "unit" o)) (list k) in
  List.iter
    (fun w -> if not (List.mem w workloads) then fail "workload %S is not one the program runs" w)
    (names "workloads");
  if units "end_to_end" <> end_to_end then fail "end_to_end metrics or units differ from the program's";
  if units "per_layer" <> per_layer then fail "per_layer metrics or units differ from the program's"

let check_streams () =
  let digest seed =
    let tb =
      { Service_wl.cells = Service_wl.corpus (); check_expect = [||]; run_expect = [||];
        fresh_cells = Hashtbl.create 16; seed }
    in
    let reqs, ids, _ =
      Service_wl.schedule Service_wl.mixed ~seed ~phase:1 ~rate:100.
        ~keys:(Service_wl.corpus_keys Service_wl.mixed ~seed ~salt:1 300) ~next_fresh:0
    in
    List.iter
      (fun k ->
        Hashtbl.replace tb.Service_wl.fresh_cells k
          (Service_wl.fresh ~seed k, { Service_wl.e_out = ""; e_err = ""; e_code = 0 }))
      ids;
    if ids = [] then fail "mixed stream has no fresh programs";
    Load.stream_digest reqs (Service_wl.frame tb)
  in
  let a = digest 7 and b = digest 7 and c = digest 8 in
  if a <> b then fail "seed 7 gave two different request streams";
  if a = c then fail "seeds 7 and 8 gave the same request stream";
  (* One key cycle asks for every corpus cell equally often. *)
  List.iter
    (fun (cfg : Service_wl.config) ->
      let counts = Array.make Service_wl.n_corpus 0 in
      Array.iter
        (fun k -> counts.(k) <- counts.(k) + 1)
        (Service_wl.corpus_keys cfg ~seed:7 ~salt:3 (Service_wl.cycle cfg));
      if Array.exists (( <> ) cfg.Service_wl.epoch) counts then
        fail "%s: a key cycle does not ask for every cell %d times" cfg.Service_wl.name
          cfg.Service_wl.epoch)
    [ Service_wl.hit; Service_wl.mixed ]

(* A fake daemon on a socketpair answers each frame at once; the
   generator starts 2 s after the schedule's origin. The margins are
   wide, so a loaded host cannot fail the check. *)
let check_due_time () =
  let client, server = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let reply = Json.Obj [ ("ok", Json.Bool true); ("out", Json.Str ""); ("err", Json.Str "");
                         ("exit", Json.Num 0.); ("cache", Json.Str "hit") ] in
  let th =
    Thread.create
      (fun () ->
        let rec loop () =
          match Proto.read_frame server with
          | Ok _ -> Proto.write_frame server reply; loop ()
          | Error _ -> ()
        in
        loop ())
      ()
  in
  let frame =
    Load.encode
      { Gmt_service.Client.body = Json.Obj [ ("op", Json.Str "ping") ]; payload = "" }
  in
  let reqs = [| { Load.due = 0.; conn = 0; key = 0 }; { Load.due = 0.05; conn = 0; key = 0 } |] in
  let origin = Unix.gettimeofday () -. 2. in
  let r = Load.run ~origin [| Load.conn client |] reqs (fun _ -> frame) in
  Unix.shutdown client Unix.SHUTDOWN_ALL;
  Thread.join th;
  Unix.close client;
  Unix.close server;
  Array.iteri
    (fun i (q : Load.sreq) ->
      let lat = Load.due_latency reqs r i and rtt = r.Load.done_.(i) -. r.Load.sent.(i) in
      if not (lat >= 2. -. q.Load.due) then
        fail "request %d: latency %.4fs does not count from its due time" i lat;
      if not (rtt < 1.) then fail "request %d: round trip %.4fs, fake daemon too slow" i rtt;
      if not (Load.lateness reqs r i >= 2. -. q.Load.due -. 1e-3) then
        fail "request %d: lateness not reported" i)
    reqs

let run ~end_to_end ~per_layer ~workloads path =
  check_names ~end_to_end ~per_layer ~workloads path;
  check_streams ();
  check_due_time ();
  print_endline "perfbench selftest: ok"
