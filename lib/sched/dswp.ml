module Pdg = Gmt_pdg.Pdg
module Scc = Gmt_graphalg.Scc
module Topo = Gmt_graphalg.Topo
module Digraph = Gmt_graphalg.Digraph
module Obs = Gmt_obs.Obs

(* Minimum-bottleneck split of [weights] (a sequence) into at most [k]
   contiguous chunks: returns the chunk index of each element. *)
let bottleneck_split weights k =
  let n = Array.length weights in
  if n = 0 then [||]
  else begin
    let prefix = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      prefix.(i + 1) <- prefix.(i) + weights.(i)
    done;
    let seg i j = prefix.(j) - prefix.(i) in
    let inf = max_int / 2 in
    (* dp.(j).(c) = min bottleneck splitting the first j elements into
       exactly c chunks *)
    let dp = Array.make_matrix (n + 1) (k + 1) inf in
    let choice = Array.make_matrix (n + 1) (k + 1) 0 in
    dp.(0).(0) <- 0;
    for j = 1 to n do
      for c = 1 to min k j do
        for i = c - 1 to j - 1 do
          if dp.(i).(c - 1) < inf then begin
            let v = max dp.(i).(c - 1) (seg i j) in
            if v < dp.(j).(c) then begin
              dp.(j).(c) <- v;
              choice.(j).(c) <- i
            end
          end
        done
      done
    done;
    let best_c = ref 1 in
    for c = 2 to k do
      if dp.(n).(c) < dp.(n).(!best_c) then best_c := c
    done;
    let assign = Array.make n 0 in
    let rec fill j c =
      if c >= 1 then begin
        let i = choice.(j).(c) in
        for x = i to j - 1 do
          assign.(x) <- c - 1
        done;
        fill i (c - 1)
      end
    in
    fill n !best_c;
    assign
  end

(* Shared core: SCC condensation, topological order, weights, stage DP.
   Returns (comp array over dense nodes, stage of each comp in topo order,
   topo order, id_of_node). *)
let solve ?(n_threads = 2) pdg profile =
  let g, _node_of_id, id_of_node = Pdg.to_digraph pdg in
  let dag, comp =
    Obs.span "scc.condense" (fun () -> Scc.condense g)
  in
  let n_comps = Digraph.n_nodes dag in
  if Obs.metrics_enabled () then begin
    Obs.count "dswp.scc.count" n_comps;
    let size = Array.make n_comps 0 in
    Array.iter (fun c -> size.(c) <- size.(c) + 1) comp;
    Obs.peak "dswp.scc.max_size" (Array.fold_left max 0 size)
  end;
  let order = Array.of_list (Topo.sort dag) in
  let cfg = (Pdg.func pdg).Gmt_ir.Func.cfg in
  let weight = Array.make n_comps 0 in
  for node = 0 to Digraph.n_nodes g - 1 do
    let i = Gmt_ir.Cfg.find_instr cfg (id_of_node node) in
    let c = comp.(node) in
    weight.(c) <- weight.(c) + Estimate.dyn_cost profile cfg i
  done;
  let seq_weights = Array.map (fun c -> weight.(c)) order in
  let chunk_of_pos = bottleneck_split seq_weights n_threads in
  (* comp -> stage *)
  let stage_of_comp = Array.make n_comps 0 in
  Array.iteri (fun pos c -> stage_of_comp.(c) <- chunk_of_pos.(pos)) order;
  (g, comp, stage_of_comp, order, id_of_node)

let partition ?(n_threads = 2) pdg profile =
  let g, comp, stage_of_comp, _order, id_of_node =
    solve ~n_threads pdg profile
  in
  let cfg = (Pdg.func pdg).Gmt_ir.Func.cfg in
  let pairs = ref [] in
  for node = 0 to Digraph.n_nodes g - 1 do
    let id = id_of_node node in
    if not (Gmt_ir.Instr.is_structural (Gmt_ir.Cfg.find_instr cfg id)) then
      pairs := (id, stage_of_comp.(comp.(node))) :: !pairs
  done;
  Partition.make ~n_threads !pairs

let stages ?(n_threads = 2) pdg profile =
  let g, comp, stage_of_comp, order, id_of_node =
    solve ~n_threads pdg profile
  in
  let members = Scc.members comp (Array.length stage_of_comp) in
  ignore g;
  Array.to_list order
  |> List.map (fun c ->
         (List.map id_of_node members.(c), stage_of_comp.(c)))
