open Iced_dfg

type induction = { phi : int; next : int; cmp : int; sel : int; step : int; bound : int }

let op ?label kind ~inputs g =
  let g, id = Graph.add_node ?label g kind in
  let g = List.fold_left (fun g src -> Graph.add_edge g src id) g inputs in
  (g, id)

let induction ~bound g =
  let g, phi = Graph.add_node ~label:"i" g Op.Phi in
  let g, step_node = Graph.add_node ~label:"step" g (Op.Const 1) in
  let g, bound_node = Graph.add_node ~label:"bound" g (Op.Const bound) in
  let g, next = op ~label:"i.next" Op.Add ~inputs:[ phi; step_node ] g in
  let g, cmp = op ~label:"i.cmp" (Op.Cmp Op.Lt) ~inputs:[ next; bound_node ] g in
  let g, sel = op ~label:"i.sel" Op.Select ~inputs:[ cmp; next ] g in
  let g = Graph.add_edge ~distance:1 g sel phi in
  (g, { phi; next; cmp; sel; step = step_node; bound = bound_node })

type accumulator = { phi : int; add : int }

let accumulator ?(op = Op.Add) ~input g =
  let g, phi = Graph.add_node ~label:"acc" g Op.Phi in
  let g, add = Graph.add_node ~label:"acc.next" g op in
  let g = Graph.add_edge g phi add in
  let g = Graph.add_edge g input add in
  let g = Graph.add_edge ~distance:1 g add phi in
  (g, { phi; add })

let load ?label ~addr g =
  let g, id = Graph.add_node ?label g Op.Load in
  let g = List.fold_left (fun g src -> Graph.add_edge g src id) g addr in
  (g, id)

let store ?label ~inputs g =
  let g, id = Graph.add_node ?label g Op.Store in
  let g = List.fold_left (fun g src -> Graph.add_edge g src id) g inputs in
  (g, id)

let chain g ~from steps =
  List.fold_left
    (fun (g, prev) (kind, extra) -> op kind ~inputs:(prev :: extra) g)
    (g, from) steps

type predicated_accumulator = { phi : int; gate : int; add : int; commit : int }

let predicated_accumulator ~pred ~input g =
  let g, phi = Graph.add_node ~label:"pacc" g Op.Phi in
  let g, gate = op ~label:"pacc.gate" Op.Select ~inputs:[ pred; phi ] g in
  let g, add = op ~label:"pacc.step" Op.Add ~inputs:[ gate; input ] g in
  let g, commit = op ~label:"pacc.commit" Op.Select ~inputs:[ pred; add ] g in
  let g = Graph.add_edge ~distance:1 g commit phi in
  (g, { phi; gate; add; commit })
