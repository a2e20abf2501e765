let seq = Atomic.make 0

(* Uniqueness, not unpredictability: pid + wall clock + a process-wide
   sequence number, digested so ids look uniform. *)
let genid () =
  let raw =
    Printf.sprintf "%d-%.9f-%d" (Unix.getpid ()) (Unix.gettimeofday ())
      (Atomic.fetch_and_add seq 1)
  in
  String.sub (Digest.to_hex (Digest.string raw)) 0 16

let stage_names =
  [|
    "req.decode"; "req.fingerprint"; "req.cache.lookup"; "req.compile";
    "req.verify"; "req.simulate"; "req.encode";
  |]

let arg_to_json = function
  | Obs.I i -> Json.Num (float_of_int i)
  | Obs.S s -> Json.Str s

let arg_of_json = function
  | Json.Num f -> Some (Obs.I (int_of_float f))
  | Json.Str s -> Some (Obs.S s)
  | _ -> None

let span_to_json (s : Obs.span) =
  Json.Obj
    [
      ("name", Json.Str s.Obs.name);
      ("cat", Json.Str s.Obs.cat);
      ("ts_us", Json.Num s.Obs.ts_us);
      ("dur_us", Json.Num s.Obs.dur_us);
      ("alloc_bytes", Json.Num s.Obs.alloc_bytes);
      ("domain", Json.Num (float_of_int s.Obs.domain));
      ( "args",
        Json.Obj (List.map (fun (k, v) -> (k, arg_to_json v)) s.Obs.args) );
    ]

let span_of_json j =
  match
    ( Json.member "name" j,
      Json.member "cat" j,
      Json.member "ts_us" j,
      Json.member "dur_us" j )
  with
  | Some (Json.Str name), Some (Json.Str cat), Some (Json.Num ts_us),
    Some (Json.Num dur_us) ->
    let alloc_bytes =
      match Json.member "alloc_bytes" j with Some (Json.Num f) -> f | _ -> 0.0
    in
    let domain =
      match Json.member "domain" j with
      | Some (Json.Num f) -> int_of_float f
      | _ -> 0
    in
    let args =
      match Json.member "args" j with
      | Some (Json.Obj fields) ->
        List.filter_map
          (fun (k, v) -> Option.map (fun a -> (k, a)) (arg_of_json v))
          fields
      | _ -> []
    in
    Some { Obs.name; cat; ts_us; dur_us; alloc_bytes; domain; args }
  | _ -> None

let spans_to_json spans = Json.Arr (List.map span_to_json spans)

let spans_of_json = function
  | Json.Arr vs -> List.filter_map span_of_json vs
  | _ -> []
