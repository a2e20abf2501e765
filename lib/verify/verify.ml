open Gmt_ir
module Pdg = Gmt_pdg.Pdg
module Partition = Gmt_sched.Partition
module Comm = Gmt_mtcg.Comm
module Mtcg = Gmt_mtcg.Mtcg
module Relevant = Gmt_mtcg.Relevant
module Controldep = Gmt_analysis.Controldep
module Alias = Gmt_analysis.Alias
module Safety = Gmt_coco.Safety
module Digraph = Gmt_graphalg.Digraph
module Obs = Gmt_obs.Obs
module Json = Gmt_obs.Json

type analysis = Coverage | Protocol | Race | Defuse

let analysis_name = function
  | Coverage -> "coverage"
  | Protocol -> "protocol"
  | Race -> "race"
  | Defuse -> "defuse"

let analysis_rank = function
  | Coverage -> 0
  | Protocol -> 1
  | Race -> 2
  | Defuse -> 3

type diagnostic = {
  analysis : analysis;
  message : string;
  arc : string option;
  queue : int option;
  comm : int option;
  thread : int option;
  witness : string list;
}

(* ------------------------------------------------------------------ *)
(* Event graph: the source CFG with the plan's communications woven in *)
(* at their points, in exactly the weaver's emit order. Paths in this  *)
(* graph are the executions both endpoint threads project from.        *)
(* ------------------------------------------------------------------ *)

type event = E_instr of Instr.t | E_comm of Comm.t

type egraph = {
  events : event array;
  next : int list array;  (** events reachable by crossing each event *)
  ev_of_instr : (int, int) Hashtbl.t;
}

let build_egraph (f : Func.t) (comms : Comm.t list) =
  let cfg = f.Func.cfg in
  let nb = Cfg.n_blocks cfg in
  let by_before = Hashtbl.create 16
  and by_after = Hashtbl.create 16
  and by_entry = Hashtbl.create 16
  and by_edge = Hashtbl.create 16 in
  let push tbl k (c : Comm.t) =
    let cur = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
    Hashtbl.replace tbl k
      (List.sort (fun (a : Comm.t) b -> compare a.index b.index) (c :: cur))
  in
  List.iter
    (fun (c : Comm.t) ->
      match c.point with
      | Comm.Before id -> push by_before id c
      | Comm.After id ->
        (* The weaver never emits after a terminator; keep such a comm in
           the graph at the Before point (it is unrealized anyway). *)
        if Instr.is_terminator (Cfg.find_instr cfg id) then push by_before id c
        else push by_after id c
      | Comm.Block_entry l -> push by_entry l c
      | Comm.On_edge (a, b) -> push by_edge (a, b) c)
    comms;
  let at tbl k = Option.value ~default:[] (Hashtbl.find_opt tbl k) in
  let block_events =
    Array.init nb (fun l ->
        let evs = ref [] in
        let add e = evs := e :: !evs in
        List.iter (fun c -> add (E_comm c)) (at by_entry l);
        List.iter
          (fun (i : Instr.t) ->
            List.iter (fun c -> add (E_comm c)) (at by_before i.id);
            add (E_instr i);
            if not (Instr.is_terminator i) then
              List.iter (fun c -> add (E_comm c)) (at by_after i.id))
          (Cfg.body cfg l);
        List.rev !evs)
  in
  let edge_list =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_edge [] |> List.sort compare
  in
  let total =
    Array.fold_left (fun n evs -> n + List.length evs) 0 block_events
    + List.fold_left (fun n (_, cs) -> n + List.length cs) 0 edge_list
  in
  let dummy = E_instr (Instr.make ~id:(-1) Instr.Nop) in
  let events = Array.make (max total 1) dummy in
  let next = Array.make (max total 1) [] in
  let ev_of_instr = Hashtbl.create 64 in
  let block_first = Array.make nb (-1) in
  let pos = ref 0 in
  Array.iteri
    (fun l evs ->
      block_first.(l) <- !pos;
      List.iter
        (fun e ->
          events.(!pos) <- e;
          (match e with
          | E_instr i -> Hashtbl.replace ev_of_instr i.Instr.id !pos
          | E_comm _ -> ());
          incr pos)
        evs)
    block_events;
  let edge_first = Hashtbl.create 8 in
  List.iter
    (fun (k, cs) ->
      Hashtbl.replace edge_first k !pos;
      List.iter
        (fun c ->
          events.(!pos) <- E_comm c;
          incr pos)
        cs)
    edge_list;
  (* Successor lists. *)
  let pos = ref 0 in
  Array.iteri
    (fun l evs ->
      let k = List.length evs in
      for j = 0 to k - 2 do
        next.(!pos + j) <- [ !pos + j + 1 ]
      done;
      let term = Cfg.terminator cfg l in
      next.(!pos + k - 1) <-
        List.map
          (fun s ->
            match Hashtbl.find_opt edge_first (l, s) with
            | Some e0 -> e0
            | None -> block_first.(s))
          (Instr.targets term);
      pos := !pos + k)
    block_events;
  List.iter
    (fun ((edge, cs) : (Instr.label * Instr.label) * Comm.t list) ->
      let e0 = Hashtbl.find edge_first edge in
      let k = List.length cs in
      for j = 0 to k - 2 do
        next.(e0 + j) <- [ e0 + j + 1 ]
      done;
      next.(e0 + k - 1) <- [ block_first.(snd edge) ])
    edge_list;
  { events; next; ev_of_instr }

let describe_event eg e =
  match eg.events.(e) with
  | E_instr i -> Printf.sprintf "i%d" i.Instr.id
  | E_comm c -> Format.asprintf "%a" Comm.pp c

let cap_witness ws =
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> [ "..." ]
    | w :: tl -> w :: take (n - 1) tl
  in
  take 60 ws

(* BFS from [starts] to [goal]; an event satisfying [blocked] cannot be
   crossed, a point satisfying [stop] ends its path harmlessly. Returns
   the event path (described) on success. *)
let find_path eg ~starts ~goal ~blocked ~stop =
  let n = Array.length eg.events in
  let parent = Array.make n (-2) in
  let q = Queue.create () in
  List.iter
    (fun s ->
      if parent.(s) = -2 then begin
        parent.(s) <- -1;
        Queue.push s q
      end)
    starts;
  let found = ref false in
  while (not !found) && not (Queue.is_empty q) do
    let e = Queue.pop q in
    if e = goal then found := true
    else if not (stop e || blocked e) then
      List.iter
        (fun nxt ->
          if parent.(nxt) = -2 then begin
            parent.(nxt) <- e;
            Queue.push nxt q
          end)
        eg.next.(e)
  done;
  if not !found then None
  else begin
    let rec walk e acc =
      if parent.(e) = -1 then e :: acc else walk parent.(e) (e :: acc)
    in
    Some (cap_witness (List.map (describe_event eg) (walk goal [])))
  end

(* ------------------------------------------------------------------ *)
(* Definite assignment ([None] = top, for unreachable blocks).         *)
(* ------------------------------------------------------------------ *)

type dassign = {
  before_i : (int, Reg.Set.t option) Hashtbl.t;
  entry_b : Reg.Set.t option array;
}

let da_mem s r = match s with None -> true | Some s -> Reg.Set.mem r s

let def_assign (f : Func.t) =
  let cfg = f.Func.cfg in
  let nb = Cfg.n_blocks cfg in
  let add_defs s (i : Instr.t) =
    List.fold_left (fun s r -> Reg.Set.add r s) s (Instr.defs i)
  in
  let gen =
    Array.init nb (fun l ->
        List.fold_left add_defs Reg.Set.empty (Cfg.body cfg l))
  in
  let inb = Array.make nb None in
  let entry = Cfg.entry cfg in
  let entry_fact = Some (Reg.Set.of_list f.Func.live_in) in
  inb.(entry) <- entry_fact;
  let meet a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (Reg.Set.inter a b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for l = 0 to nb - 1 do
      if l <> entry then begin
        let m =
          List.fold_left
            (fun acc p ->
              meet acc (Option.map (fun s -> Reg.Set.union s gen.(p)) inb.(p)))
            None (Cfg.preds cfg l)
        in
        if not (Option.equal Reg.Set.equal m inb.(l)) then begin
          inb.(l) <- m;
          changed := true
        end
      end
    done
  done;
  let before_i = Hashtbl.create 64 in
  Cfg.iter_blocks cfg (fun b ->
      let cur = ref inb.(b.Cfg.label) in
      List.iter
        (fun (i : Instr.t) ->
          Hashtbl.replace before_i i.Instr.id !cur;
          cur := Option.map (fun s -> add_defs s i) !cur)
        b.Cfg.body);
  { before_i; entry_b = inb }

(* ------------------------------------------------------------------ *)
(* The checker.                                                        *)
(* ------------------------------------------------------------------ *)

type cinfo = {
  comm : Comm.t;
  q : int;  (** physical queue *)
  mutable prod : Instr.t option;
  mutable cons : Instr.t option;
}

let op_matches (ci : cinfo) ~producer (i : Instr.t) =
  match (i.Instr.op, ci.comm.Comm.payload, producer) with
  | Instr.Produce (q, r), Comm.Data r', true -> q = ci.q && r = r'
  | Instr.Produce_sync q, Comm.Sync, true -> q = ci.q
  | Instr.Consume (r, q), Comm.Data r', false -> q = ci.q && r = r'
  | Instr.Consume_sync q, Comm.Sync, false -> q = ci.q
  | _ -> false

let run ?max_queues ?(queue_of = fun i -> i) ?prune_mem ~pdg ~partition ~plan
    ~origin (mtp : Mtprog.t) =
  let f = Pdg.func pdg in
  let cfg = f.Func.cfg in
  let threads = mtp.Mtprog.threads in
  let n_threads = Partition.n_threads partition in
  let diags = ref [] in
  let diag analysis ?arc ?queue ?comm ?thread ?(witness = []) fmt =
    Format.kasprintf
      (fun message ->
        diags :=
          { analysis; message; arc; queue; comm; thread; witness } :: !diags)
      fmt
  in
  if Array.length threads <> n_threads then begin
    diag Protocol "program has %d threads, partition has %d"
      (Array.length threads) n_threads;
    List.rev !diags
  end
  else begin
    let comms = plan.Mtcg.comms in
    let eg = build_egraph f comms in
    let cd = Controldep.compute f in
    let rel = Relevant.compute f cd partition comms in
    let source_reachable = Digraph.reachable (Cfg.digraph cfg) [ Cfg.entry cfg ] in
    let reachable_instr id =
      match Cfg.position cfg id with
      | l, _ -> source_reachable.(l)
      | exception Not_found -> false
    in
    let lookup t id =
      match Cfg.find_instr threads.(t).Func.cfg id with
      | i -> Some i
      | exception Not_found -> None
    in
    (* Realization map: which side of each planned comm made it into the
       final code, via the weaver's provenance. *)
    let comm_tbl : (int, cinfo) Hashtbl.t = Hashtbl.create 32 in
    List.iter
      (fun (c : Comm.t) ->
        Hashtbl.replace comm_tbl c.index
          { comm = c; q = queue_of c.index; prod = None; cons = None })
      comms;
    Array.iteri
      (fun t tbl ->
        if t < n_threads then
          Hashtbl.iter
            (fun id idx ->
              match Hashtbl.find_opt comm_tbl idx with
              | None -> ()
              | Some ci ->
                if t = ci.comm.Comm.src then begin
                  match lookup t id with
                  | Some i -> ci.prod <- Some i
                  | None -> ()
                end
                else if t = ci.comm.Comm.dst then begin
                  match lookup t id with
                  | Some i -> ci.cons <- Some i
                  | None -> ()
                end)
            tbl)
      origin.Mtcg.comm_of_instr;
    let realized idx =
      match Hashtbl.find_opt comm_tbl idx with
      | None -> false
      | Some ci -> (
        match (ci.prod, ci.cons) with
        | Some p, Some c ->
          op_matches ci ~producer:true p && op_matches ci ~producer:false c
        | _ -> false)
    in
    (* Safety (Property 3) per thread, on demand. *)
    let safety =
      Array.init n_threads (fun t ->
          lazy (Safety.compute f partition ~thread:t))
    in
    let safe_at t (p : Comm.point) r =
      let s = Lazy.force safety.(t) in
      match p with
      | Comm.Before id -> Safety.is_safe_before s id r
      | Comm.After id -> Safety.is_safe_after s id r
      | Comm.Block_entry l -> Reg.Set.mem r (Safety.safe_at_entry s l)
      | Comm.On_edge (a, _) ->
        Safety.is_safe_after s (Cfg.terminator cfg a).Instr.id r
    in
    let safe_before_event tt e r =
      match eg.events.(e) with
      | E_instr i -> Safety.is_safe_before (Lazy.force safety.(tt)) i.Instr.id r
      | E_comm c -> safe_at tt c.Comm.point r
    in
    let arc_str (a : Pdg.arc) =
      Printf.sprintf "i%d -[%s]-> i%d" a.src (Pdg.kind_to_string a.kind) a.dst
    in
    (* Memory-synchronization dataflow: for a source access [i] in thread
       [ts], the must-set of threads ordered after [i] at every point
       (crossing a realized comm whose producer is already ordered adds
       its consumer; meet = intersection). Shared by the mem-coverage and
       race analyses. *)
    let sync_cache : (int, int array) Hashtbl.t = Hashtbl.create 16 in
    let sync_state i_id ts =
      match Hashtbl.find_opt sync_cache i_id with
      | Some st -> st
      | None ->
        let n = Array.length eg.events in
        let state = Array.make n (-1) in
        let q = Queue.create () in
        let update e m =
          let m' = state.(e) land m in
          if m' <> state.(e) then begin
            state.(e) <- m';
            Queue.push e q
          end
        in
        List.iter
          (fun e -> update e (1 lsl ts))
          eg.next.(Hashtbl.find eg.ev_of_instr i_id);
        while not (Queue.is_empty q) do
          let e = Queue.pop q in
          let m = state.(e) in
          let m_out =
            match eg.events.(e) with
            | E_comm c
              when realized c.Comm.index && m land (1 lsl c.Comm.src) <> 0 ->
              m lor (1 lsl c.Comm.dst)
            | _ -> m
          in
          List.iter (fun nxt -> update nxt m_out) eg.next.(e)
        done;
        Hashtbl.replace sync_cache i_id state;
        state
    in
    let mem_covered i_id ts j_id tt =
      let st = sync_state i_id ts in
      st.(Hashtbl.find eg.ev_of_instr j_id) land (1 lsl tt) <> 0
    in
    (* Witness for an unsynchronized pair: explicit path search over
       (event, ordered-thread-set) states. *)
    let find_unsynced_path i_id ts j_id tt =
      let goal = Hashtbl.find eg.ev_of_instr j_id in
      let tbl : (int * int, (int * int) option) Hashtbl.t =
        Hashtbl.create 256
      in
      let q = Queue.create () in
      let add st parent =
        if not (Hashtbl.mem tbl st) then begin
          Hashtbl.replace tbl st parent;
          Queue.push st q
        end
      in
      List.iter
        (fun e -> add (e, 1 lsl ts) None)
        eg.next.(Hashtbl.find eg.ev_of_instr i_id);
      let found = ref None in
      while !found = None && not (Queue.is_empty q) do
        let (e, m) as st = Queue.pop q in
        if e = goal && m land (1 lsl tt) = 0 then found := Some st
        else begin
          let m' =
            match eg.events.(e) with
            | E_comm c
              when realized c.Comm.index && m land (1 lsl c.Comm.src) <> 0 ->
              m lor (1 lsl c.Comm.dst)
            | _ -> m
          in
          List.iter (fun nxt -> add (nxt, m') (Some st)) eg.next.(e)
        end
      done;
      match !found with
      | None -> []
      | Some st ->
        let rec walk st acc =
          let acc = describe_event eg (fst st) :: acc in
          match Hashtbl.find tbl st with
          | None -> acc
          | Some p -> walk p acc
        in
        cap_witness (walk st [])
    in

    (* ------------------------- coverage --------------------------- *)
    Obs.span "verify.coverage" (fun () ->
        (* Every partitioned instruction survives into its thread. *)
        for t = 0 to n_threads - 1 do
          List.iter
            (fun id ->
              if reachable_instr id then
                let si = Cfg.find_instr cfg id in
                match lookup t id with
                | None ->
                  diag Coverage ~thread:t
                    "instruction i%d (%s) assigned to T%d is missing from \
                     its generated thread"
                    id (Instr.to_string si) t
                | Some g -> (
                  match (si.Instr.op, g.Instr.op) with
                  | Instr.Branch (c1, _, _), Instr.Branch (c2, _, _) ->
                    if not (Reg.equal c1 c2) then
                      diag Coverage ~thread:t
                        "branch i%d in T%d tests %s, source tests %s" id t
                        (Reg.to_string c2) (Reg.to_string c1)
                  | sop, gop ->
                    if sop <> gop then
                      diag Coverage ~thread:t
                        "instruction i%d in T%d was rewritten (%s, source %s)"
                        id t (Instr.to_string g) (Instr.to_string si)))
            (Partition.instrs_of partition t)
        done;
        (* Replicated relevant branches. *)
        for t = 0 to n_threads - 1 do
          Relevant.Iset.iter
            (fun br_id ->
              if reachable_instr br_id then
                match lookup t br_id with
                | Some { Instr.op = Instr.Branch (c2, _, _); _ } ->
                  let c1 =
                    match (Cfg.find_instr cfg br_id).Instr.op with
                    | Instr.Branch (c, _, _) -> c
                    | _ -> c2
                  in
                  if not (Reg.equal c1 c2) then
                    diag Coverage ~thread:t
                      "replicated branch i%d in T%d tests %s, source tests %s"
                      br_id t (Reg.to_string c2) (Reg.to_string c1)
                | Some g ->
                  diag Coverage ~thread:t
                    "relevant branch i%d appears in T%d as %s, not a branch"
                    br_id t (Instr.to_string g)
                | None ->
                  diag Coverage ~thread:t
                    "relevant branch i%d is not replicated in T%d" br_id t)
            (Relevant.branches rel t)
        done;
        (* Cross-thread PDG arcs. *)
        let n_arcs = ref 0 in
        List.iter
          (fun (a : Pdg.arc) ->
            match
              ( Partition.thread_of_opt partition a.src,
                Partition.thread_of_opt partition a.dst )
            with
            | Some ts, Some tt
              when ts <> tt && reachable_instr a.src && reachable_instr a.dst
              -> (
              incr n_arcs;
              match a.kind with
              | Pdg.Reg r ->
                let goal = Hashtbl.find eg.ev_of_instr a.dst in
                let starts = eg.next.(Hashtbl.find eg.ev_of_instr a.src) in
                let blocked e =
                  match eg.events.(e) with
                  | E_instr j -> List.mem r (Instr.defs j)
                  | E_comm c -> (
                    match c.Comm.payload with
                    | Comm.Data r' ->
                      Reg.equal r r' && c.Comm.dst = tt
                      && realized c.Comm.index
                      && safe_at c.Comm.src c.Comm.point r
                    | Comm.Sync -> false)
                in
                let stop e = safe_before_event tt e r in
                let result =
                  if stop goal then None
                  else find_path eg ~starts ~goal ~blocked ~stop
                in
                (match result with
                | None -> ()
                | Some witness ->
                  diag Coverage ~arc:(arc_str a) ~thread:tt ~witness
                    "register dependence %s (T%d->T%d) is not covered: a \
                     def-clear path reaches the use without a safe produce \
                     /consume of %s into T%d and outside T%d's SAFE set"
                    (arc_str a) ts tt (Reg.to_string r) tt tt)
              | Pdg.Mem (k, region) ->
                if not (mem_covered a.src ts a.dst tt) then
                  let witness = find_unsynced_path a.src ts a.dst tt in
                  diag Coverage ~arc:(arc_str a) ~thread:tt ~witness
                    "memory dependence %s (%s on %s, T%d->T%d) has a path \
                     with no chain of realized communications ordering the \
                     accesses"
                    (arc_str a)
                    (Alias.kind_to_string k)
                    (Func.region_name f region)
                    ts tt
              | Pdg.Ctrl -> (
                if not (Relevant.is_relevant_branch rel ~thread:tt ~branch_id:a.src)
                then
                  diag Coverage ~arc:(arc_str a) ~thread:tt
                    "control dependence %s: branch i%d is not relevant to T%d"
                    (arc_str a) a.src tt;
                match lookup tt a.src with
                | Some { Instr.op = Instr.Branch _; _ } -> ()
                | Some g ->
                  diag Coverage ~arc:(arc_str a) ~thread:tt
                    "control dependence %s: i%d appears in T%d as %s, not a \
                     branch"
                    (arc_str a) a.src tt (Instr.to_string g)
                | None ->
                  diag Coverage ~arc:(arc_str a) ~thread:tt
                    "control dependence %s: branch i%d is missing from T%d"
                    (arc_str a) a.src tt)
              | Pdg.Ctrl_trans ->
                (* Validated indirectly: the replicated-branch, protocol
                   condition-replication and def-before-use checks pin the
                   transitive control conditions down (see DESIGN.md). *)
                ())
            | _ -> ())
          (Pdg.arcs pdg);
        Obs.count "verify.cross_arcs_checked" !n_arcs);

    (* ------------------------- protocol --------------------------- *)
    Obs.span "verify.protocol" (fun () ->
        (match max_queues with
        | Some mq when mtp.Mtprog.n_queues > mq ->
          diag Protocol "program uses %d queues, synchronization array has %d"
            mtp.Mtprog.n_queues mq
        | _ -> ());
        Hashtbl.iter
          (fun idx (ci : cinfo) ->
            let c = ci.comm in
            let where = Comm.point_to_string c.Comm.point in
            (match (ci.prod, ci.cons) with
            | None, None -> () (* dropped on both sides: vacuous *)
            | Some p, None ->
              diag Protocol ~queue:ci.q ~comm:idx ~thread:c.Comm.dst
                "comm#%d (%s, T%d->T%d): produce i%d present in T%d but \
                 consume missing in T%d — queue %d accumulates values"
                idx where c.Comm.src c.Comm.dst p.Instr.id c.Comm.src
                c.Comm.dst ci.q
            | None, Some cn ->
              diag Protocol ~queue:ci.q ~comm:idx ~thread:c.Comm.dst
                "comm#%d (%s, T%d->T%d): consume i%d present in T%d but \
                 produce missing in T%d — T%d blocks forever on queue %d"
                idx where c.Comm.src c.Comm.dst cn.Instr.id c.Comm.dst
                c.Comm.src c.Comm.dst ci.q
            | Some p, Some cn ->
              if not (op_matches ci ~producer:true p) then
                diag Protocol ~queue:ci.q ~comm:idx ~thread:c.Comm.src
                  "comm#%d (%s, T%d->T%d): produce side is '%s', expected \
                   queue %d payload %s"
                  idx where c.Comm.src c.Comm.dst (Instr.to_string p) ci.q
                  (match c.Comm.payload with
                  | Comm.Data r -> Reg.to_string r
                  | Comm.Sync -> "sync");
              if not (op_matches ci ~producer:false cn) then
                diag Protocol ~queue:ci.q ~comm:idx ~thread:c.Comm.dst
                  "comm#%d (%s, T%d->T%d): consume side is '%s', expected \
                   queue %d payload %s"
                  idx where c.Comm.src c.Comm.dst (Instr.to_string cn) ci.q
                  (match c.Comm.payload with
                  | Comm.Data r -> Reg.to_string r
                  | Comm.Sync -> "sync"));
            (* The branches controlling a realized comm's point must be
               replicated in both endpoint threads (MTCG's relevance
               invariant; dropping one desynchronizes the protocol). *)
            if realized idx then begin
              let controllers =
                match c.Comm.point with
                | Comm.On_edge (a, _) ->
                  let t = Cfg.terminator cfg a in
                  let base = Controldep.branch_deps cd a in
                  if Instr.is_branch t then
                    List.sort_uniq compare (t.Instr.id :: base)
                  else base
                | p -> Controldep.branch_deps cd (Comm.block_of_point cfg p)
              in
              List.iter
                (fun br_id ->
                  List.iter
                    (fun th ->
                      match lookup th br_id with
                      | Some { Instr.op = Instr.Branch _; _ } -> ()
                      | _ ->
                        diag Protocol ~queue:ci.q ~comm:idx ~thread:th
                          "comm#%d (%s): controlling branch i%d is not \
                           replicated in endpoint T%d — produce/consume \
                           counts can diverge"
                          idx where br_id th)
                    [ c.Comm.src; c.Comm.dst ])
                controllers
            end)
          comm_tbl;
        (* FIFO order within a (queue, point) group, and no queue shared
           across distinct thread pairs. *)
        let by_queue : (int, cinfo list) Hashtbl.t = Hashtbl.create 16 in
        Hashtbl.iter
          (fun _ (ci : cinfo) ->
            if ci.prod <> None || ci.cons <> None then
              Hashtbl.replace by_queue ci.q
                (ci :: Option.value ~default:[] (Hashtbl.find_opt by_queue ci.q)))
          comm_tbl;
        Hashtbl.iter
          (fun q cis ->
            let pairs =
              List.map (fun ci -> (ci.comm.Comm.src, ci.comm.Comm.dst)) cis
              |> List.sort_uniq compare
            in
            (match pairs with
            | _ :: _ :: _ ->
              diag Protocol ~queue:q
                "queue %d is shared by communications of distinct thread \
                 pairs (%s)"
                q
                (String.concat ", "
                   (List.map (fun (s, d) -> Printf.sprintf "T%d->T%d" s d) pairs))
            | _ -> ());
            (* Same-point groups must enqueue and dequeue in one order. *)
            let by_point = Hashtbl.create 8 in
            List.iter
              (fun ci ->
                if realized ci.comm.Comm.index then
                  Hashtbl.replace by_point ci.comm.Comm.point
                    (ci
                    :: Option.value ~default:[]
                         (Hashtbl.find_opt by_point ci.comm.Comm.point)))
              cis;
            Hashtbl.iter
              (fun point group ->
                match group with
                | [] | [ _ ] -> ()
                | _ ->
                  let order side =
                    List.filter_map
                      (fun ci ->
                        let inst, th =
                          if side then (ci.prod, ci.comm.Comm.src)
                          else (ci.cons, ci.comm.Comm.dst)
                        in
                        match inst with
                        | None -> None
                        | Some i ->
                          Some
                            ( Cfg.position threads.(th).Func.cfg i.Instr.id,
                              ci.comm.Comm.index ))
                      group
                    |> List.sort compare |> List.map snd
                  in
                  let po = order true and co = order false in
                  if po <> co then
                    diag Protocol ~queue:q
                      "queue %d at %s: produce order [%s] but consume order \
                       [%s] — FIFO values cross over"
                      q
                      (Comm.point_to_string point)
                      (String.concat ";" (List.map string_of_int po))
                      (String.concat ";" (List.map string_of_int co)))
              by_point)
          by_queue);

    (* --------------------------- races ---------------------------- *)
    Obs.span "verify.race" (fun () ->
        (* When the compile pruned memory arcs, re-derive the disjointness
           facts from the source function rather than trusting the PDG:
           a pair the analysis cannot re-prove disjoint stays subject to
           the ordering-chain requirement, so an unsoundly pruned arc
           surfaces here as a race. *)
        let memdis =
          Option.map
            (fun mem_size -> Gmt_analysis.Memdis.analyze ~mem_size f)
            prune_mem
        in
        let proven_disjoint i_id j_id =
          match memdis with
          | Some s -> Gmt_analysis.Memdis.disjoint s i_id j_id
          | None -> false
        in
        let mem_is = ref [] in
        Cfg.iter_instrs cfg (fun l i ->
            if Instr.is_memory i && source_reachable.(l) then
              match Partition.thread_of_opt partition i.Instr.id with
              | Some t -> mem_is := (i, t) :: !mem_is
              | None -> ());
        let mem_is = List.rev !mem_is in
        let n_pairs = ref 0 in
        List.iter
          (fun ((i : Instr.t), ti) ->
            List.iter
              (fun ((j : Instr.t), tj) ->
                if ti <> tj && not (proven_disjoint i.Instr.id j.Instr.id)
                then
                  match Alias.dep_kind ~earlier:i ~later:j with
                  | None -> ()
                  | Some k ->
                    incr n_pairs;
                    if not (mem_covered i.Instr.id ti j.Instr.id tj) then
                      let witness =
                        find_unsynced_path i.Instr.id ti j.Instr.id tj
                      in
                      if witness <> [] then
                        diag Race ~thread:tj ~witness
                          "race: i%d (T%d) and i%d (T%d) may both touch %s \
                           (%s) with no ordering communication chain"
                          i.Instr.id ti j.Instr.id tj
                          (Func.region_name f
                             (match Instr.mem_write i with
                             | Some r -> r
                             | None -> Option.value ~default:0 (Instr.mem_read i)))
                          (Alias.kind_to_string k))
              mem_is)
          mem_is;
        Obs.count "verify.race_pairs_checked" !n_pairs);

    (* ------------------------ def-before-use ---------------------- *)
    Obs.span "verify.defuse" (fun () ->
        let src_da = def_assign f in
        let src_assigned_before id r =
          match Hashtbl.find_opt src_da.before_i id with
          | Some s -> da_mem s r
          | None -> true
        in
        let src_assigned_at_point p r =
          match p with
          | Comm.Before id -> src_assigned_before id r
          | Comm.After id ->
            src_assigned_before id r
            || List.mem r (Instr.defs (Cfg.find_instr cfg id))
          | Comm.Block_entry l -> da_mem src_da.entry_b.(l) r
          | Comm.On_edge (a, _) ->
            src_assigned_before (Cfg.terminator cfg a).Instr.id r
        in
        for t = 0 to n_threads - 1 do
          let tf = threads.(t) in
          let da = def_assign tf in
          Cfg.iter_instrs tf.Func.cfg (fun _ (g : Instr.t) ->
              match Instr.uses g with
              | [] -> ()
              | uses ->
                let before =
                  match Hashtbl.find_opt da.before_i g.Instr.id with
                  | Some s -> s
                  | None -> None
                in
                List.iter
                  (fun r ->
                    if not (da_mem before r) then
                      let src_assigned =
                        match Mtcg.comm_of origin ~thread:t g.Instr.id with
                        | Some idx -> (
                          match Hashtbl.find_opt comm_tbl idx with
                          | Some ci ->
                            src_assigned_at_point ci.comm.Comm.point r
                          | None -> true)
                        | None -> (
                          match Cfg.find_instr cfg g.Instr.id with
                          | _ -> src_assigned_before g.Instr.id r
                          | exception Not_found -> false)
                      in
                      if src_assigned then
                        diag Defuse ~thread:t
                          "T%d: i%d (%s) may use %s before any def or \
                           consume assigns it (the source always assigns it)"
                          t g.Instr.id (Instr.to_string g) (Reg.to_string r))
                  uses)
        done);

    let out =
      List.sort
        (fun a b ->
          compare
            (analysis_rank a.analysis, a.message, a.arc, a.queue, a.comm)
            (analysis_rank b.analysis, b.message, b.arc, b.queue, b.comm))
        !diags
    in
    Obs.count "verify.runs" 1;
    Obs.count "verify.diagnostics" (List.length out);
    out
  end

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)
(* ------------------------------------------------------------------ *)

let pp_diagnostic ppf d =
  Format.fprintf ppf "[%s] %s" (analysis_name d.analysis) d.message;
  match d.witness with
  | [] -> ()
  | ws -> Format.fprintf ppf "@,  witness: %s" (String.concat " -> " ws)

let render = function
  | [] -> ""
  | ds ->
    List.mapi
      (fun i d -> Format.asprintf "%d. @[<v>%a@]" (i + 1) pp_diagnostic d)
      ds
    |> String.concat "\n"

let to_json ?(label = "") ~name diags =
  let opt_i = function None -> Json.Null | Some i -> Json.Num (float_of_int i) in
  let opt_s = function None -> Json.Null | Some s -> Json.Str s in
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.Str "gmt-verify/1");
         ("function", Json.Str name);
         ("label", Json.Str label);
         ("ok", Json.Bool (diags = []));
         ( "diagnostics",
           Json.Arr
             (List.map
                (fun d ->
                  Json.Obj
                    [
                      ("analysis", Json.Str (analysis_name d.analysis));
                      ("message", Json.Str d.message);
                      ("arc", opt_s d.arc);
                      ("queue", opt_i d.queue);
                      ("comm", opt_i d.comm);
                      ("thread", opt_i d.thread);
                      ( "witness",
                        Json.Arr (List.map (fun w -> Json.Str w) d.witness) );
                    ])
                diags) );
       ])
