type task = unit -> unit

let noop : task = fun () -> ()

type worker = {
  wid : int;
  deque : task Deque.t;
  (* Worker-private FIFO ring holding the tail of the last injector
     drain: tasks here run with zero atomic operations and zero
     allocations (the ring is preallocated; consumed slots are
     overwritten with [noop] so closures are not retained). Only the
     owner touches it, and it is always empty by the time the owner
     parks or exits, so no other domain ever needs to see it. *)
  buffer : task array;
  mutable buf_head : int;
  mutable buf_tail : int;
  mutable rng : int; (* xorshift64 state, per-worker, deterministic seed *)
  (* Hot counters are owner-written plain fields: exact after the
     shutdown join, racy-but-monotone when sampled live. *)
  mutable w_tasks : int;
  mutable w_steal_attempts : int;
  mutable w_steals : int;
  mutable w_parks : int;
  mutable w_depth_peak : int;
}

type t = {
  ws : worker array;
  (* How many workers actually contend for tasks: min(workers, host
     parallel capacity). Workers beyond this are STANDBY — they exist
     (one domain each, so [workers] keeps its meaning and its spawn
     accounting), but sleep on a dedicated condvar until shutdown.
     Running more task-hungry domains than the host has cores is pure
     loss: they cannot add throughput, but each CPU-bound domain
     inflates every stop-the-world minor-GC rendezvous by an OS
     scheduling latency, and on a one-core host that single effect was
     measured DOUBLING a fine-grained flood's wall clock. *)
  active : int;
  (* Blocking-task mode (the gmtd request pool): tasks park in I/O or
     on condvars, so batching them into one worker's private ring would
     serialize them behind whichever blocks first. Spread mode drains
     the injector one task per grab and wakes a sleeper on every
     submit, trading batch amortization (pointless when each task
     blocks for milliseconds) for immediate dispersal. *)
  spread : bool;
  injector : task Injector.t;
  stop : bool Atomic.t;
  (* Plain on purpose: one more fenced RMW on the submit hot path was
     measurable. Exact for a single submitting domain (the Pool, the
     daemon's accept loop); a lower bound if several domains submit. *)
  mutable injected : int;
  sleep_mutex : Mutex.t;
  sleep_cond : Condition.t;
  (* Standbys wait here, apart from [sleep_cond], so a task-arrival
     [wake_one] signal can never be swallowed by a worker that will
     not take tasks. Signaled only at shutdown. *)
  standby_cond : Condition.t;
  sleepers : int Atomic.t; (* ACTIVE workers parked on sleep_cond *)
  failure : (exn * Printexc.raw_backtrace) option Atomic.t;
  mutable domains : unit Domain.t list;
  mutable stopped : bool; (* owning-domain view; shutdown idempotence *)
}

type stats = {
  workers : int;
  tasks_run : int;
  injected : int;
  steals_attempted : int;
  steals_succeeded : int;
  parks : int;
  deque_depth_peak : int;
}

(* How many extra injector tasks a worker pulls into its own deque per
   grab: amortizes injector CAS traffic, keeps subsequent pops on the
   cheap owner path, and gives thieves something to steal. *)
let drain_batch = 64

(* Steal retries on a CAS conflict before moving to the next victim. *)
let steal_tries = 2

(* Idle escalation, in three stages:

   1. 2^0 .. 2^max_backoff cpu_relax spins — catches work that is
      nanoseconds away without leaving the core.
   2. [polls_before_park] timed naps of [poll_sleep] seconds — unlike
      [cpu_relax], a nap yields the OS timeslice, so on an
      oversubscribed host the domain that actually holds (or is
      producing) work gets the core. Crucially a nap is ONE syscall,
      where a condvar park/unpark cycle is a mutex handshake plus a
      futex sleep AND a futex wake on the submitter's side; during a
      task flood a worker can outrun the submitter thousands of times,
      and paying the full park price each time is what kills
      throughput.
   3. Park on the condvar — only after ~polls_before_park * poll_sleep
      of sustained idleness, so a quiescent scheduler (an idle daemon)
      burns zero CPU and wakes via the submitter's empty->nonempty
      edge signal. *)
let max_backoff = 2
let poll_sleep = 1e-4
let polls_before_park = 8

let spawn_counter = Atomic.make 0
let domains_spawned_total () = Atomic.get spawn_counter

let next_rand w =
  (* xorshift64*; plenty for victim-rotation randomization. *)
  let x = w.rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  w.rng <- x;
  x land max_int

let has_work t =
  (not (Injector.is_empty t.injector))
  || Array.exists (fun w -> not (Deque.is_empty w.deque)) t.ws

let wake_one t =
  Mutex.lock t.sleep_mutex;
  Condition.signal t.sleep_cond;
  Mutex.unlock t.sleep_mutex

let wake_all t =
  Mutex.lock t.sleep_mutex;
  Condition.broadcast t.sleep_cond;
  Condition.broadcast t.standby_cond;
  Mutex.unlock t.sleep_mutex

(* Dekker-style parking: publish the sleeper count, then re-check for
   work before waiting. A submitter pushes first and reads the count
   second, so (all accesses being SC atomics) either it observes the
   sleeper and signals, or the sleeper's re-check observes the push.

   Parking is OPPORTUNISTIC for all but the last awake worker: a worker
   that lost the race for a batch may sleep even while the injector is
   non-empty, because some sibling is still awake to drain it (and will
   pass a wake along when it banks surplus). Only the worker whose
   increment makes the sleeper count hit [active] — the last one
   standing — must re-check the injector and refuse to sleep while work
   remains. Work can hide nowhere else at that instant: a worker only
   reaches [park] with its private buffer and deque empty, and parked
   siblings' deques cannot refill while their owners sleep. On an
   oversubscribed host this converges to roughly one awake worker
   instead of a herd of spinners starving the submitter.

   Spread mode has no such sibling: an awake worker may sit inside a
   task blocked for the life of a connection, so EVERY parker re-checks.
   Otherwise a push landing between its last [find_task] and its
   increment (which [submit] missed, reading [sleepers = 0]) would stay
   queued while the only free worker sleeps. *)
let park t w =
  w.w_parks <- w.w_parks + 1;
  Mutex.lock t.sleep_mutex;
  let prev = Atomic.fetch_and_add t.sleepers 1 in
  let must_recheck = t.spread || prev = t.active - 1 in
  let may_sleep =
    (not (Atomic.get t.stop))
    && ((not must_recheck) || Injector.is_empty t.injector)
  in
  if may_sleep then Condition.wait t.sleep_cond t.sleep_mutex;
  Atomic.decr t.sleepers;
  Mutex.unlock t.sleep_mutex

let take_buf w =
  let task = w.buffer.(w.buf_head) in
  w.buffer.(w.buf_head) <- noop;
  w.buf_head <- w.buf_head + 1;
  task

let grab_injector t w =
  (* Only called with an empty ring, so restart it from slot 0. *)
  w.buf_head <- 0;
  w.buf_tail <- 0;
  (* A blocking pool takes ONE task per grab: a private batch would
     serialize its whole tail behind the first task that parks. *)
  let max = if t.spread then 1 else drain_batch in
  let n =
    Injector.drain t.injector ~max (fun task ->
        w.buffer.(w.buf_tail) <- task;
        w.buf_tail <- w.buf_tail + 1)
  in
  if n = 0 then None
  else begin
    if t.active > 1 && n > 1 then begin
      (* Keep the front half as the private zero-atomic run; publish
         the back half on the deque for thieves. A lone worker has no
         thieves, so its whole batch stays private. *)
      let keep = (n + 1) / 2 in
      for i = keep to n - 1 do
        Deque.push w.deque w.buffer.(i);
        w.buffer.(i) <- noop
      done;
      w.buf_tail <- keep;
      (* Banked surplus: advertise it to one parked sibling; if it
         drains a batch in turn it passes the wake on — a cascading
         wakeup instead of a thundering herd. *)
      if Atomic.get t.sleepers > 0 then wake_one t
    end;
    let d = (w.buf_tail - w.buf_head) + Deque.size w.deque in
    if d > w.w_depth_peak then w.w_depth_peak <- d;
    Some (take_buf w)
  end

let try_steal t w =
  (* Only active workers ever hold tasks, so only they are victims. *)
  let n = t.active in
  if n <= 1 then None
  else begin
    let start = next_rand w mod (n - 1) in
    let rec victims k =
      if k > n - 2 then None
      else
        let vid = (w.wid + 1 + ((start + k) mod (n - 1))) mod n in
        let rec attempt tries =
          w.w_steal_attempts <- w.w_steal_attempts + 1;
          match Deque.steal t.ws.(vid).deque with
          | Deque.Stolen task ->
            w.w_steals <- w.w_steals + 1;
            Some task
          | Deque.Empty -> None
          | Deque.Retry -> if tries > 1 then attempt (tries - 1) else None
        in
        match attempt steal_tries with
        | Some _ as r -> r
        | None -> victims (k + 1)
    in
    victims 0
  end

let find_task t w =
  if w.buf_head < w.buf_tail then Some (take_buf w)
  else
    match Deque.pop w.deque with
    | Some _ as r -> r
    | None -> (
      match grab_injector t w with
      | Some _ as r -> r
      | None -> try_steal t w)

let run_task t task =
  try task ()
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    ignore (Atomic.compare_and_set t.failure None (Some (e, bt)))

let relax n =
  for _ = 1 to n do
    Domain.cpu_relax ()
  done

(* A standby worker sleeps until shutdown. It never takes tasks, so it
   costs nothing at runtime — no nap polls, no steal sweeps, and (being
   blocked on the condvar) it does not participate in stop-the-world
   GC rendezvous. *)
let standby_loop t =
  Mutex.lock t.sleep_mutex;
  while not (Atomic.get t.stop) do
    Condition.wait t.standby_cond t.sleep_mutex
  done;
  Mutex.unlock t.sleep_mutex

let worker_loop t w =
  let rec go backoff =
    match find_task t w with
    | Some task ->
      run_task t task;
      w.w_tasks <- w.w_tasks + 1;
      go 0
    | None ->
      if Atomic.get t.stop && not (has_work t) then ()
      else if backoff < max_backoff then begin
        relax (1 lsl backoff);
        go (backoff + 1)
      end
      else if backoff < max_backoff + polls_before_park then begin
        Unix.sleepf poll_sleep;
        go (backoff + 1)
      end
      else begin
        park t w;
        go 0
      end
  in
  go 0

let create ?(blocking = false) ~workers () =
  if workers < 1 then
    invalid_arg
      (Printf.sprintf "Sched.create: workers must be >= 1 (got %d)" workers);
  let ws =
    Array.init workers (fun wid ->
        {
          wid;
          deque = Deque.create ();
          buffer = Array.make drain_batch noop;
          buf_head = 0;
          buf_tail = 0;
          (* Deterministic, distinct, non-zero xorshift seeds. *)
          rng = (wid + 1) * 0x9E3779B97F4A7C1;
          w_tasks = 0;
          w_steal_attempts = 0;
          w_steals = 0;
          w_parks = 0;
          w_depth_peak = 0;
        })
  in
  let t =
    {
      ws;
      (* CPU-bound fan-out wants at most one worker per hardware
         thread; a host with fewer cores than [workers] keeps the rest
         on standby. A blocking pool overrides the clamp: its workers
         sleep in I/O or on a single-flight condvar, so it needs all of
         them schedulable even on a small host. *)
      active =
        (if blocking then workers
         else min workers (max 1 (Domain.recommended_domain_count ())));
      spread = blocking;
      injector = Injector.create ();
      stop = Atomic.make false;
      injected = 0;
      sleep_mutex = Mutex.create ();
      sleep_cond = Condition.create ();
      standby_cond = Condition.create ();
      sleepers = Atomic.make 0;
      failure = Atomic.make None;
      domains = [];
      stopped = false;
    }
  in
  t.domains <-
    List.init workers (fun i ->
        Atomic.incr spawn_counter;
        Domain.spawn (fun () ->
            if i < t.active then worker_loop t ws.(i) else standby_loop t));
  t

let submit t task =
  if Atomic.get t.stop then invalid_arg "Sched.submit: scheduler is stopped";
  Injector.push t.injector task;
  t.injected <- t.injected + 1;
  (* The last-awake parking rule means a wake is REQUIRED exactly when
     every worker is on the condvar: the last parker verified the
     injector empty, so this push is the empty->nonempty edge. With any
     worker still off the condvar (running, spinning or napping) the
     task is noticed within one nap period without a syscall — a flood
     in steady state pays one atomic read here and nothing else. The
     read happens after [Injector.push] completes publication, which is
     the Dekker ordering that also covers the producer's publication
     gap: either this read observes the full condvar and signals, or
     the last parker's re-check observed the published element.

     A blocking (spread-mode) pool wakes a sleeper on EVERY push
     instead: its non-parked workers may all be inside tasks, blocked
     for milliseconds, so "someone awake will notice" does not hold —
     each task needs a worker dispatched now, and the wake syscall is
     noise against a request that blocks anyway. The same Dekker
     ordering holds there because every spread-mode parker re-checks. *)
  if t.spread then begin
    if Atomic.get t.sleepers > 0 then wake_one t
  end
  else if Atomic.get t.sleepers >= t.active then wake_one t

let shutdown t =
  if not t.stopped then begin
    t.stopped <- true;
    Atomic.set t.stop true;
    (* Broadcast under the mutex: a worker between its sleeper publish
       and its wait holds the mutex, so the broadcast cannot slip into
       that window. *)
    wake_all t;
    List.iter Domain.join t.domains;
    t.domains <- [];
    match Atomic.get t.failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let stats t =
  let s =
    {
      workers = Array.length t.ws;
      tasks_run = 0;
      injected = t.injected;
      steals_attempted = 0;
      steals_succeeded = 0;
      parks = 0;
      deque_depth_peak = 0;
    }
  in
  Array.fold_left
    (fun acc w ->
      {
        acc with
        tasks_run = acc.tasks_run + w.w_tasks;
        steals_attempted = acc.steals_attempted + w.w_steal_attempts;
        steals_succeeded = acc.steals_succeeded + w.w_steals;
        parks = acc.parks + w.w_parks;
        deque_depth_peak = max acc.deque_depth_peak w.w_depth_peak;
      })
    s t.ws
