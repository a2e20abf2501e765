type t = { queue_of : int -> int; n_queues : int }

let identity comms =
  let n = List.length comms in
  Gmt_obs.Obs.peak "queue_alloc.logical_peak" n;
  { queue_of = (fun i -> i); n_queues = n }

let allocate ~max_queues comms =
  let n = List.length comms in
  if max_queues <= 0 then invalid_arg "Queue_alloc.allocate: max_queues <= 0";
  Gmt_obs.Obs.peak "queue_alloc.logical_peak" n;
  if n > max_queues then
    Gmt_obs.Obs.count "queue_alloc.recolored_allocations" 1;
  if n <= max_queues then identity comms
  else begin
    (* Group communication indices by ordered thread pair. *)
    let groups : (int * int, int list) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (c : Comm.t) ->
        let key = (c.Comm.src, c.Comm.dst) in
        Hashtbl.replace groups key
          (c.Comm.index :: Option.value ~default:[] (Hashtbl.find_opt groups key)))
      comms;
    let group_list =
      Hashtbl.fold (fun k v acc -> (k, List.rev v) :: acc) groups []
      |> List.sort compare
    in
    let n_groups = List.length group_list in
    if n_groups > max_queues then
      invalid_arg
        (Printf.sprintf
           "Queue_alloc.allocate: %d thread pairs exceed %d queues" n_groups
           max_queues);
    (* One queue per group, then spread the surplus proportionally to
       group size (largest remainder). *)
    let sizes = List.map (fun (_, ms) -> List.length ms) group_list in
    let surplus = max_queues - n_groups in
    let total = List.fold_left ( + ) 0 sizes in
    let extra =
      List.map (fun s -> surplus * s / max 1 total) sizes |> Array.of_list
    in
    let used = n_groups + Array.fold_left ( + ) 0 extra in
    (* distribute any remaining queues to the largest groups *)
    let order =
      List.mapi (fun i s -> (s, i)) sizes
      |> List.sort (fun a b -> compare b a)
      |> List.map snd
    in
    let leftover = ref (max_queues - used) in
    List.iter
      (fun i ->
        if !leftover > 0 then begin
          extra.(i) <- extra.(i) + 1;
          decr leftover
        end)
      order;
    (* Assign: group g owns queues [base_g .. base_g + alloc_g - 1];
       members are spread round-robin (heavier slack-sensitive streams
       could be prioritized; round-robin suffices for correctness and
       keeps the mapping deterministic). *)
    let table = Hashtbl.create n in
    let next_base = ref 0 in
    List.iteri
      (fun gi (_, members) ->
        let alloc = 1 + extra.(gi) in
        let base = !next_base in
        next_base := base + alloc;
        List.iteri
          (fun mi idx -> Hashtbl.replace table idx (base + (mi mod alloc)))
          members)
      group_list;
    {
      queue_of =
        (fun i ->
          match Hashtbl.find_opt table i with
          | Some q -> q
          | None -> invalid_arg "Queue_alloc: unknown communication index");
      n_queues = !next_base;
    }
  end
