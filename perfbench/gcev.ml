(* GC figures from OCaml's runtime_events ring, read from outside the
   program: the bench process's own ring for [matrix], the daemon's
   ring file for the gmtd workloads. Used in traced runs only.

   [stw_ns] sums, over domains, the time spent in minor collections
   (stop-the-world in OCaml 5) and in the major cycle's stop-the-world
   phase. *)

module RE = Runtime_events

type t = {
  cursor : RE.cursor;
  callbacks : RE.Callbacks.t;
  mutable minor_bytes : int;
  cycles : (int, int) Hashtbl.t;  (** major cycles seen per ring *)
  mutable stw_ns : int64;
  mutable lost : int;
  opened : (int * RE.runtime_phase, int64) Hashtbl.t;
}

let is_stw = function RE.EV_MINOR | RE.EV_MAJOR_GC_STW -> true | _ -> false

let make cursor =
  let rec t =
    lazy
      {
        cursor;
        callbacks =
          RE.Callbacks.create
            ~runtime_begin:(fun d ts ph ->
              let t = Lazy.force t in
              if is_stw ph then
                Hashtbl.replace t.opened (d, ph) (RE.Timestamp.to_int64 ts);
              if ph = RE.EV_MAJOR_GC_CYCLE_DOMAINS then
                Hashtbl.replace t.cycles d
                  (1 + Option.value (Hashtbl.find_opt t.cycles d) ~default:0))
            ~runtime_end:(fun d ts ph ->
              let t = Lazy.force t in
              match Hashtbl.find_opt t.opened (d, ph) with
              | Some t0 ->
                Hashtbl.remove t.opened (d, ph);
                t.stw_ns <-
                  Int64.add t.stw_ns (Int64.sub (RE.Timestamp.to_int64 ts) t0)
              | None -> ())
            ~runtime_counter:(fun _ _ c v ->
              let t = Lazy.force t in
              if c = RE.EV_C_MINOR_ALLOCATED then
                t.minor_bytes <- t.minor_bytes + v)
            ~lost_events:(fun _ n ->
              let t = Lazy.force t in
              t.lost <- t.lost + n)
            ();
        minor_bytes = 0;
        cycles = Hashtbl.create 8;
        stw_ns = 0L;
        lost = 0;
        opened = Hashtbl.create 8;
      }
  in
  Lazy.force t

(* The bench process's own ring. *)
let self () =
  RE.start ();
  make (RE.create_cursor None)

(* A child's ring: [dir] holds [<pid>.events] once the child started
   with OCAML_RUNTIME_EVENTS_START=1. *)
let child ~dir ~pid =
  let path = Filename.concat dir (string_of_int pid ^ ".events") in
  let rec wait k =
    if Sys.file_exists path then make (RE.create_cursor (Some (dir, pid)))
    else if k = 0 then failwith ("runtime events ring never appeared: " ^ path)
    else (Unix.sleepf 0.02; wait (k - 1))
  in
  wait 250

let poll t = ignore (RE.read_poll t.cursor t.callbacks None)

(* Zero the counters at the start of the window being measured. *)
let reset t =
  poll t;
  t.minor_bytes <- 0;
  Hashtbl.reset t.cycles;
  t.stw_ns <- 0L;
  t.lost <- 0

(* Every domain takes part in each cycle's stop-the-world step, so the
   busiest ring counts the cycles. *)
let major_cycles t = Hashtbl.fold (fun _ n acc -> max n acc) t.cycles 0

let close t = RE.free_cursor t.cursor
