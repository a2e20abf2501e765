(* The textual GMT-IR frontend: parser/printer round-trips (golden and
   QCheck over the random program generator), exact-position parse
   diagnostics, and the differential fuzz harness's ability to detect
   seeded miscompiles and shrink them to standalone repros. *)

module Text = Gmt_frontend.Text
module Gen = Gmt_frontend.Gen
module Fuzz = Gmt_frontend.Fuzz
module Suite = Gmt_workloads.Suite
module W = Gmt_workloads.Workload
module V = Gmt_core.Velocity

(* ------------------------- golden diagnostics --------------------- *)

(* A minimal well-formed function the error cases below perturb. *)
let base_func =
  String.concat "\n"
    [
      "func \"t\" (regs: 3, live_in: [r0], live_out: [])";
      "regions: [m0 = \"m0\"]";
      "entry: B0";
      "B0:";
      "  i0: r1 = add r0, r0";
      "  i1: return";
    ]

let check_error name src expected =
  Alcotest.test_case name `Quick (fun () ->
      match Text.parse_func ~file:"t.gmt" src with
      | Ok _ -> Alcotest.failf "%s: parse unexpectedly succeeded" name
      | Error e ->
        Alcotest.(check string) name expected (Text.render_error e))

let golden_errors =
  [
    check_error "bad opcode"
      (String.concat "\n"
         [
           "func \"t\" (regs: 3, live_in: [r0], live_out: [])";
           "regions: [m0 = \"m0\"]";
           "entry: B0";
           "B0:";
           "  i0: r1 = frobnicate r0, r0";
           "  i1: return";
           "";
         ])
      "t.gmt:5:12: unknown opcode 'frobnicate' (expected an integer, a \
       register, 'load', a unary op (neg/not/abs/fneg/fsqrt) or a binary op \
       (add/sub/mul/div/rem/and/or/xor/shl/shr/lt/le/eq/ne/gt/ge/min/max/\
       fadd/fsub/fmul/fdiv/fmin/fmax))";
    check_error "undefined label"
      (String.concat "\n"
         [
           "func \"t\" (regs: 3, live_in: [r0], live_out: [])";
           "regions: [m0 = \"m0\"]";
           "entry: B0";
           "B0:";
           "  i0: jump B7";
           "";
         ])
      "t.gmt:5:12: undefined label B7";
    check_error "duplicate block"
      (String.concat "\n"
         [
           "func \"t\" (regs: 3, live_in: [r0], live_out: [])";
           "regions: [m0 = \"m0\"]";
           "entry: B0";
           "B0:";
           "  i0: jump B0";
           "B0:";
           "  i1: return";
           "";
         ])
      "t.gmt:6:1: duplicate block B0";
    check_error "region index out of range"
      (String.concat "\n"
         [
           "func \"t\" (regs: 3, live_in: [r0], live_out: [])";
           "regions: [m0 = \"m0\"]";
           "entry: B0";
           "B0:";
           "  i0: r1 = load m4[r0 + 0]";
           "  i1: return";
           "";
         ])
      "t.gmt:5:17: region m4 out of range (func declares 1 region)";
  ]

let test_golden_roundtrip () =
  match Text.parse_func ~file:"t.gmt" base_func with
  | Error e -> Alcotest.failf "base_func: %s" (Text.render_error e)
  | Ok f ->
    Alcotest.(check string)
      "print (parse base) = base" base_func (Text.print_func f)

(* ------------------------ QCheck round-trip ----------------------- *)

(* >= 200 cases over the shared random-program generator: parse is a
   left inverse of print, for bare functions and whole workloads, and
   re-printing the parse is byte-identical (print is canonical). *)
let arbitrary_seed =
  QCheck.make
    ~print:(fun seed -> Text.print (Gen.workload (Gen.gen ~seed)))
    QCheck.Gen.(int_range 0 1_000_000)

let prop_roundtrip =
  QCheck.Test.make ~count:200 ~name:"parse (print w) = w on random programs"
    arbitrary_seed (fun seed ->
      let stmts = Gen.gen ~seed in
      let f = Gen.lower stmts in
      let w = Gen.workload stmts in
      (match Text.parse_func (Text.print_func f) with
      | Error e -> QCheck.Test.fail_report (Text.render_error e)
      | Ok f' ->
        if not (Text.func_equal f f') then
          QCheck.Test.fail_report "func round-trip not structurally equal");
      match Text.parse (Text.print w) with
      | Error e -> QCheck.Test.fail_report (Text.render_error e)
      | Ok w' ->
        Text.workload_equal w w' && Text.print w' = Text.print w)

(* ------------------- metrics parity after re-parse ---------------- *)

let test_metrics_parity () =
  let w = Suite.find "adpcmdec" in
  let w' =
    match Text.parse (Text.print w) with
    | Ok w' -> w'
    | Error e -> Alcotest.failf "re-parse: %s" (Text.render_error e)
  in
  let metrics_of w =
    Gmt_obs.Obs.reset ();
    Gmt_obs.Obs.enable_metrics ();
    List.iter
      (fun (tech, coco) -> ignore (V.compile ~coco ~verify:false tech w))
      [ (V.Gremio, false); (V.Gremio, true); (V.Dswp, false); (V.Dswp, true) ];
    let m = Gmt_obs.Obs.metrics () in
    Gmt_obs.Obs.reset ();
    m
  in
  Alcotest.(check (list (pair string int)))
    "metrics byte-identical for re-parsed workload" (metrics_of w)
    (metrics_of w')

(* ----------------------- seeded-fault detection ------------------- *)

(* The differential harness must catch both injected miscompiles, and
   the shrunk repro must still be a valid, still-failing .gmt. *)
let test_fuzz_detects mutation () =
  let seed = 3 in
  let stmts = Gen.gen ~seed in
  (match Fuzz.check_workload (Gen.workload stmts) with
  | Ok () -> ()
  | Error f -> Alcotest.failf "clean program flagged: %s/%s" f.Fuzz.cell
                 f.Fuzz.detail);
  match Fuzz.check_workload ~mutate:mutation (Gen.workload stmts) with
  | Ok () ->
    Alcotest.failf "mutation %s not detected" (Fuzz.mutation_name mutation)
  | Error _ ->
    let small = Fuzz.minimize ~mutate:mutation stmts in
    if List.length small > List.length stmts then
      Alcotest.fail "minimize grew the program";
    let repro = Gen.workload ~name:"repro" small in
    (match Fuzz.check_workload ~mutate:mutation repro with
    | Ok () -> Alcotest.fail "minimized program no longer fails"
    | Error _ -> ());
    (match Text.parse (Text.print repro) with
    | Ok w' ->
      if not (Text.workload_equal repro w') then
        Alcotest.fail "repro does not round-trip"
    | Error e -> Alcotest.failf "repro unparseable: %s" (Text.render_error e))

(* ------------------------- position maps -------------------------- *)

(* [parse_pos] must hand back a 1-based (line, col) for every
   instruction of a parsed document and nothing for foreign ids — the
   contract [gmtc lint] anchors its findings on. *)
let test_parse_pos_total () =
  List.iter
    (fun (w : W.t) ->
      match Text.parse_pos ~file:(w.W.name ^ ".gmt") (Text.print w) with
      | Error e ->
        Alcotest.failf "%s: %s" w.W.name (Text.render_error e)
      | Ok (w', pos) ->
        let lines = ref [] in
        Gmt_ir.Cfg.iter_instrs w'.W.func.Gmt_ir.Func.cfg
          (fun _ (i : Gmt_ir.Instr.t) ->
            match pos i.Gmt_ir.Instr.id with
            | None ->
              Alcotest.failf "%s: i%d has no position" w.W.name
                i.Gmt_ir.Instr.id
            | Some (line, col) ->
              if line < 1 || col < 1 then
                Alcotest.failf "%s: i%d at non-1-based %d:%d" w.W.name
                  i.Gmt_ir.Instr.id line col;
              lines := line :: !lines);
        (* Canonical printing emits one instruction per line. *)
        let sorted = List.sort_uniq compare !lines in
        Alcotest.(check int)
          (w.W.name ^ " distinct lines")
          (List.length !lines) (List.length sorted);
        Alcotest.(check (option (pair int int)))
          (w.W.name ^ " unknown id unmapped")
          None
          (pos (Gmt_ir.Cfg.max_instr_id w'.W.func.Gmt_ir.Func.cfg + 1000)))
    (Suite.all ())

let tests =
  golden_errors
  @ [
      Alcotest.test_case "canonical print round-trips" `Quick
        test_golden_roundtrip;
      QCheck_alcotest.to_alcotest prop_roundtrip;
      Alcotest.test_case "metrics parity after re-parse" `Quick
        test_metrics_parity;
      Alcotest.test_case "fuzz detects drop-produce" `Quick
        (test_fuzz_detects Fuzz.Drop_produce);
      Alcotest.test_case "fuzz detects swap-branch" `Quick
        (test_fuzz_detects Fuzz.Swap_branch);
      Alcotest.test_case "parse_pos maps every instruction" `Quick
        test_parse_pos_total;
    ]
