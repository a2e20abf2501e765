type severity = Debug | Info | Warn | Error

let severity_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let capacity = 256

let lock = Mutex.create ()
let ring = Array.make capacity ""
let head = ref 0 (* next write position *)
let len = ref 0
let sink : (string -> unit) option ref = ref None

let locked f = Mutex.protect lock f

let render ~ts ~severity ~kind fields =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "{\"ts\":%.6f,\"severity\":" ts);
  Buffer.add_string buf (Json.escape (severity_name severity));
  Buffer.add_string buf ",\"kind\":";
  Buffer.add_string buf (Json.escape kind);
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ',';
      Buffer.add_string buf (Json.escape k);
      Buffer.add_char buf ':';
      Json.to_buffer buf v)
    fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

let emit ?(severity = Info) ~kind fields =
  let line = render ~ts:(Unix.gettimeofday ()) ~severity ~kind fields in
  let to_sink =
    locked (fun () ->
        ring.(!head) <- line;
        head := (!head + 1) mod capacity;
        if !len < capacity then incr len;
        !sink)
  in
  Option.iter (fun f -> f line) to_sink

let recent () =
  locked (fun () ->
      List.init !len (fun i ->
          ring.((!head - !len + i + capacity) mod capacity)))

let set_sink s = locked (fun () -> sink := s)

let reset () =
  locked (fun () ->
      Array.fill ring 0 capacity "";
      head := 0;
      len := 0;
      sink := None)
