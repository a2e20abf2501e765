(* Open-loop load over at most two persistent gmtd connections.

   Requests are pre-encoded frames with a due time. One thread runs a
   select loop: it hands each request to its connection when it falls
   due (gmtd serves the frames of one connection in order, so requests
   pipeline on the socket), writes without blocking, and matches replies
   to requests in FIFO order per connection. Latency is measured from
   the due time, never from the send, so a stall of the generator or of
   the daemon is charged to every request it delays. *)

module Client = Gmt_service.Client
module Proto = Gmt_service.Proto

(* The bytes of one request frame, produced by [Proto.write_frame] once,
   before any timed loop, so the generator never encodes or allocates a
   frame. A thread drains the socket pair while the frame is written:
   frames outgrow the socket buffer. *)
let encode (r : Client.req) =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let buf = Buffer.create 65536 in
  let reader =
    Thread.create
      (fun () ->
        let chunk = Bytes.create 65536 in
        let rec go () =
          match Unix.read b chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n -> Buffer.add_subbytes buf chunk 0 n; go ()
        in
        go ())
      ()
  in
  Proto.write_frame a ~payload:r.Client.payload r.Client.body;
  Unix.shutdown a Unix.SHUTDOWN_SEND;
  Thread.join reader;
  Unix.close a;
  Unix.close b;
  Buffer.contents buf

(* A scheduled request: [due] in seconds from the phase origin, the
   connection it rides on, and [key], the index of its frame (and of
   the reply it must get) in the caller's tables. *)
type sreq = { due : float; conn : int; key : int }

(* [conn = any]: the connection with the fewest requests in flight when
   the request falls due (in turn on a tie), as a client holding two
   connections would pick. *)
let any = -1

(* Byte image of a request stream: same seed, same bytes. *)
let stream_digest (reqs : sreq array) (frames : int -> string) =
  let b = Buffer.create 4096 in
  Array.iter
    (fun r ->
      Buffer.add_string b (Printf.sprintf "%h %d " r.due r.conn);
      Buffer.add_string b (Digest.to_hex (Digest.string (frames r.key)));
      Buffer.add_char b '\n')
    reqs;
  Digest.to_hex (Digest.string (Buffer.contents b))

type result = {
  issued : bool array;  (** handed to its connection (false after an abort) *)
  sent : float array;  (** absolute time the generator issued it *)
  done_ : float array;  (** absolute time its reply was complete *)
  replies : string array;  (** the reply's JSON document *)
  origin : float;  (** absolute time of due = 0 *)
  aborted : bool;
  backlog_at_end : int;  (** requests unanswered when issuing stopped *)
}

(* Latency of request [i] counted from its scheduled due time. *)
let due_latency (reqs : sreq array) r i = r.done_.(i) -. (r.origin +. reqs.(i).due)

(* How late the generator issued request [i]. *)
let lateness (reqs : sreq array) r i = r.sent.(i) -. (r.origin +. reqs.(i).due)

type conn = {
  fd : Unix.file_descr;
  out : (string * int ref) Queue.t;
  inflight : int Queue.t;
  mutable rbuf : Bytes.t;
  mutable rlen : int;
}

let conn fd =
  Unix.set_nonblock fd;
  { fd; out = Queue.create (); inflight = Queue.create ();
    rbuf = Bytes.create 65536; rlen = 0 }

let flush c =
  let rec go () =
    match Queue.peek_opt c.out with
    | None -> ()
    | Some (s, off) ->
      let len = String.length s - !off in
      (match Unix.single_write_substring c.fd s !off len with
      | n ->
        off := !off + n;
        if !off = String.length s then (ignore (Queue.pop c.out); go ())
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ())
  in
  go ()

exception Closed

(* Read what is available; return the JSON documents of the complete
   reply frames. Only this split knows Proto's header: a 4-byte
   big-endian frame length, then a 4-byte big-endian JSON length. *)
let read_replies c =
  if Bytes.length c.rbuf - c.rlen < 16384 then begin
    let nb = Bytes.create (2 * Bytes.length c.rbuf) in
    Bytes.blit c.rbuf 0 nb 0 c.rlen;
    c.rbuf <- nb
  end;
  (match Unix.read c.fd c.rbuf c.rlen (Bytes.length c.rbuf - c.rlen) with
  | 0 -> raise Closed
  | n -> c.rlen <- c.rlen + n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
  let frames = ref [] in
  let pos = ref 0 in
  let continue = ref true in
  while !continue do
    if c.rlen - !pos >= 8 then begin
      let total = Int32.to_int (Bytes.get_int32_be c.rbuf !pos) in
      let jn = Int32.to_int (Bytes.get_int32_be c.rbuf (!pos + 4)) in
      if c.rlen - !pos >= 4 + total then begin
        frames := Bytes.sub_string c.rbuf (!pos + 8) jn :: !frames;
        pos := !pos + 4 + total
      end
      else continue := false
    end
    else continue := false
  done;
  if !pos > 0 then begin
    Bytes.blit c.rbuf !pos c.rbuf 0 (c.rlen - !pos);
    c.rlen <- c.rlen - !pos
  end;
  List.rev !frames

(* Run one phase. [abort_after]: stop issuing once the oldest
   unanswered request is this far past its due time (a ladder probe
   that has clearly failed). [drain_s]: how long to wait for the last
   replies once issuing stops; a request still unanswered then is
   failed. [tick] runs at most every 50 ms (the GC event poller).
   [spin_s]: poll instead of sleeping once the next request is this
   close to due. A sleeping generator wakes late on a virtual CPU (ms
   at a light rate), and that lateness is charged to the request. *)
let run ?(abort_after = infinity)
    ?(drain_s = 30.) ?(tick = fun () -> ()) ?(spin_s = 0.) ?origin (conns : conn array)
    (reqs : sreq array) (frames : int -> string) =
  let n = Array.length reqs in
  let issued = Array.make n false in
  let sent = Array.make n nan in
  let done_ = Array.make n nan in
  let replies = Array.make n "" in
  let origin = match origin with Some o -> o | None -> Unix.gettimeofday () in
  let next = ref 0 and answered = ref 0 in
  let aborted = ref false in
  let backlog_at_end = ref (-1) in
  let last_tick = ref (Unix.gettimeofday ()) in
  let deadline = ref infinity in
  let turn = ref 0 in
  let pick () =
    let best = ref (-1) in
    for k = 0 to Array.length conns - 1 do
      let c = (!turn + k) mod Array.length conns in
      if !best < 0 || Queue.length conns.(c).inflight < Queue.length conns.(!best).inflight
      then best := c
    done;
    turn := (!best + 1) mod Array.length conns;
    !best
  in
  let stop_issuing now =
    if !backlog_at_end < 0 then begin
      backlog_at_end := !next - !answered;
      deadline := now +. drain_s
    end
  in
  let outstanding () = !next - !answered in
  (try
     while (!next < n && not !aborted) || outstanding () > 0 do
       let now = Unix.gettimeofday () in
       if now > !deadline then raise Exit;
       if now -. !last_tick > 0.05 then begin
         tick ();
         last_tick := now
       end;
       if not !aborted then
         while !next < n && origin +. reqs.(!next).due <= now do
           let i = !next in
           let c = conns.(if reqs.(i).conn = any then pick () else reqs.(i).conn) in
           Queue.push (frames reqs.(i).key, ref 0) c.out;
           Queue.push i c.inflight;
           issued.(i) <- true;
           sent.(i) <- now;
           incr next
         done;
       (if (not !aborted) && abort_after < infinity then
          let oldest =
            Array.fold_left
              (fun acc c ->
                match Queue.peek_opt c.inflight with
                | Some i -> min acc (origin +. reqs.(i).due)
                | None -> acc)
              infinity conns
          in
          if now -. oldest > abort_after then aborted := true);
       if !next >= n || !aborted then stop_issuing now;
       Array.iter flush conns;
       let rd =
         Array.fold_left
           (fun acc c -> if Queue.is_empty c.inflight then acc else c.fd :: acc)
           [] conns
       in
       let wr =
         Array.fold_left
           (fun acc c -> if Queue.is_empty c.out then acc else c.fd :: acc)
           [] conns
       in
       let timeout =
         if !next < n && not !aborted then
           Float.max 0. (Float.min 0.05 (origin +. reqs.(!next).due -. now -. spin_s))
         else 0.05
       in
       let r, _, _ =
         try Unix.select rd wr [] timeout
         with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
       in
       List.iter
         (fun fd ->
           Array.iter
             (fun c ->
               if c.fd = fd then
                 List.iter
                   (fun doc ->
                     let t = Unix.gettimeofday () in
                     let i = Queue.pop c.inflight in
                     done_.(i) <- t;
                     replies.(i) <- doc;
                     incr answered)
                   (read_replies c))
             conns)
         r
     done
   with Exit | Closed -> ());
  if !backlog_at_end < 0 then backlog_at_end := 0;
  { issued; sent; done_; replies; origin; aborted = !aborted;
    backlog_at_end = !backlog_at_end }

(* A phase that hit its drain deadline leaves replies in flight that
   would be matched to the next phase's requests: reconnect instead. *)
let drained (conns : conn array) =
  Array.for_all (fun c -> Queue.is_empty c.inflight && Queue.is_empty c.out) conns
