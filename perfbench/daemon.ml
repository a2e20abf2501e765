(* A [gmtc serve] child process, driven only through its public
   surface: the socket protocol and /proc. *)

module Json = Gmt_obs.Json
module Client = Gmt_service.Client

type t = { pid : int; socket : string; mutable alive : bool }

let live : t list ref = ref []

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

(* [events_dir]: start the child's runtime_events ring there. *)
let start ~gmtc ~dir ~jobs ~mem_capacity ?events_dir () =
  let socket = Filename.concat dir (Printf.sprintf "gmtd-%d.sock" (Unix.getpid ())) in
  let log =
    Unix.openfile (Filename.concat dir "gmtd.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let env =
    let base = Unix.environment () in
    match events_dir with
    | None -> base
    | Some d ->
      Array.append base
        [| "OCAML_RUNTIME_EVENTS_START=1"; "OCAML_RUNTIME_EVENTS_DIR=" ^ d |]
  in
  let argv =
    [| gmtc; "serve"; "--socket"; socket; "--jobs"; string_of_int jobs;
       "--mem-capacity"; string_of_int mem_capacity |]
  in
  let pid = Unix.create_process_env gmtc argv env Unix.stdin log log in
  Unix.close log;
  let t = { pid; socket; alive = true } in
  live := t :: !live;
  let rec wait k =
    match Client.ping ~socket with
    | Ok _ -> ()
    | Error _ when k > 0 ->
      Unix.sleepf 0.01;
      wait (k - 1)
    | Error _ -> failwith "gmtd did not answer ping within 10 s"
  in
  wait 1000;
  t

let stats t =
  match Client.rpc ~socket:t.socket Client.stats_request with
  | Ok j -> j
  | Error _ -> failwith "gmtd stats request failed"

(* VmHWM of the daemon, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  let ic = open_in path in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

let stop t =
  if t.alive then begin
    t.alive <- false;
    (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let rec reap k =
      match Unix.waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ when k > 0 ->
        Unix.sleepf 0.02;
        reap (k - 1)
      | 0, _ ->
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] t.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap k
    in
    reap 500;
    live := List.filter (fun d -> d != t) !live
  end

let stop_all () = List.iter stop !live
