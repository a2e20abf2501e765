(* Corpus gate (dune alias @corpus, folded into @smoke):

   Every .gmt file alongside this program must (1) parse, (2) be
   structurally equal to the in-tree suite workload of the same name,
   (3) re-serialize to the exact bytes on disk — the corpus is the
   canonical export, so any Printer/Text drift shows up as a diff here,
   (4) compile with translation validation on under both techniques,
   and (5) produce byte-identical metrics whether the compiler is fed
   the re-parsed file or the in-memory original. *)

module Text = Gmt_frontend.Text
module Suite = Gmt_workloads.Suite
module W = Gmt_workloads.Workload
module V = Gmt_core.Velocity
module Obs = Gmt_obs.Obs

let failures = ref 0

let fail file fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.eprintf "corpus: %s: %s\n" file msg)
    fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let metrics_of f =
  Obs.reset ();
  Obs.enable_metrics ();
  f ();
  let m = Obs.metrics () in
  Obs.reset ();
  m

let check_file file =
  let src = read_file file in
  match Text.parse ~file src with
  | Error e -> fail file "parse failed: %s" (Text.render_error e)
  | Ok w -> (
    (match Suite.lookup w.W.name with
    | Error msg -> fail file "not a suite workload: %s" msg
    | Ok orig ->
      if not (Text.workload_equal w orig) then
        fail file "parsed workload differs from the in-tree %S" w.W.name;
      let reprint = Text.print w in
      if reprint <> src then
        fail file "re-serialization is not byte-identical to the file";
      let compile w' = ignore (V.compile ~verify:false V.Dswp w') in
      let m_parsed = metrics_of (fun () -> compile w) in
      let m_orig = metrics_of (fun () -> compile orig) in
      if m_parsed <> m_orig then
        fail file "metrics differ between re-parsed and in-memory compiles");
    List.iter
      (fun tech ->
        match V.compile ~verify:true tech w with
        | _ -> ()
        | exception e ->
          fail file "compile %s with verification failed: %s"
            (V.technique_name tech) (Printexc.to_string e))
      [ V.Gremio; V.Dswp ])

let () =
  let files =
    Sys.readdir "." |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".gmt")
    |> List.sort compare
  in
  if files = [] then begin
    prerr_endline "corpus: no .gmt files found";
    exit 1
  end;
  let names =
    List.sort compare
      (List.map (fun f -> Filename.remove_extension f) files)
  in
  let suite = List.sort compare (Suite.names ()) in
  if names <> suite then
    fail "(corpus)" "file set %s does not match the suite %s"
      (String.concat "," names) (String.concat "," suite);
  List.iter check_file files;
  if !failures > 0 then begin
    Printf.eprintf "corpus: %d failure(s) over %d file(s)\n" !failures
      (List.length files);
    exit 1
  end;
  Printf.printf "corpus: %d file(s) parse, round-trip and verify\n"
    (List.length files)
