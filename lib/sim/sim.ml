open Iced_dfg

type binding = {
  load : label:string -> iter:int -> operands:int list -> int;
  phi_init : label:string -> int;
}

let zero_binding =
  { load = (fun ~label:_ ~iter:_ ~operands:_ -> 0); phi_init = (fun ~label:_ -> 0) }

type store_event = { label : string; iter : int; operands : int list }

type result = {
  iterations : int;
  cycles : int;
  stores : store_event list;
  executed : int;
  violations : string list;
}

(* The DFG as evaluation reads it: one entry per node in id order, its
   in-edges in predecessor order with the producer resolved to its
   index here.  Built once per call, so evaluating an instance looks
   nothing up by id. *)
type input = { src : int; src_id : int; distance : int; src_op : Op.t }

type view_node = { op : Op.t; label : string; inputs : input list }

let view g =
  let nodes = Array.of_list (Graph.nodes g) in
  let index = Hashtbl.create (Array.length nodes) in
  Array.iteri (fun i (n : Graph.node) -> Hashtbl.replace index n.id i) nodes;
  let input (e : Graph.edge) =
    let src = Hashtbl.find index e.src in
    { src; src_id = e.src; distance = e.distance; src_op = nodes.(src).op }
  in
  ( Array.map
      (fun (n : Graph.node) ->
        { op = n.op; label = n.label; inputs = List.map input (Graph.predecessors g n.id) })
      nodes,
    index )

(* Instance values by (node index, iteration), in three states: not yet
   produced ([known] unset), invalid ([None]) and a value. *)
type memo = { known : Bytes.t; value : int option array; iterations : int }

let memo nodes ~iterations =
  {
    known = Bytes.make (nodes * iterations) '\000';
    value = Array.make (nodes * iterations) None;
    iterations;
  }

let cell memo node iter = (node * memo.iterations) + iter
let produced memo cell = Bytes.get memo.known cell <> '\000'

let record memo cell v =
  Bytes.set memo.known cell '\001';
  memo.value.(cell) <- v

(* Constants are iteration-invariant and always available; any other
   operand is the producer's instance [distance] iterations back. *)
let operand lookup iter (e : input) =
  match e.src_op with Op.Const k -> Some k | _ -> lookup e (iter - e.distance)

(* Every operand's value, or [None] when one is invalid. *)
let valid operands =
  if List.exists Option.is_none operands then None else Some (List.filter_map Fun.id operands)

(* Shared evaluation of one (node, iter) instance given a lookup for
   already-computed instances ([lookup e iter] reads [e]'s producer at
   [iter]).  Returns [None] for predicated-invalid values (an operand
   from a negative iteration). *)
let eval_instance binding view lookup node iter =
  let node = view.(node) in
  match node.op with
  | Op.Phi -> (
    match List.find_opt (fun (e : input) -> e.distance > 0) node.inputs with
    | Some c when iter >= c.distance -> operand lookup iter c
    | _ -> (
      match List.find_opt (fun (e : input) -> e.distance = 0) node.inputs with
      | Some e -> lookup e iter
      | None -> Some (binding.phi_init ~label:node.label)))
  | Op.Load ->
    valid (List.map (operand lookup iter) node.inputs)
    |> Option.map (fun operands -> binding.load ~label:node.label ~iter ~operands)
  | Op.Store ->
    (* value recorded separately; a store produces nothing *)
    Some 0
  | op -> valid (List.map (operand lookup iter) node.inputs) |> Option.map (Eval.apply op)

(* The store a [Store] node's instance writes, [None] when invalid. *)
let store_of view lookup node iter =
  let node = view.(node) in
  valid (List.map (operand lookup iter) node.inputs)
  |> Option.map (fun operands -> { label = node.label; iter; operands })

let interpret ?(binding = zero_binding) g ~iterations =
  (match Graph.validate g with
  | Error msg -> invalid_arg ("Sim.interpret: " ^ msg)
  | Ok () -> ());
  if iterations <= 0 then invalid_arg "Sim.interpret: non-positive iterations";
  let view, _ = view g in
  let memo = memo (Array.length view) ~iterations in
  let rec lookup (e : input) iter =
    if iter < 0 then None
    else begin
      let cell = cell memo e.src iter in
      if produced memo cell then memo.value.(cell)
      else begin
        (* Cycles always pass through carried edges with distance >= 1,
           so recursion on (node, iter) terminates: intra edges strictly
           decrease topological position, carried edges decrease iter. *)
        let v = eval_instance binding view lookup e.src iter in
        record memo cell v;
        v
      end
    end
  in
  let stores = ref [] in
  for iter = 0 to iterations - 1 do
    Array.iteri
      (fun i (n : view_node) ->
        if n.op = Op.Store then
          match store_of view lookup i iter with
          | Some event -> stores := event :: !stores
          | None -> ())
      view
  done;
  List.sort compare (List.rev !stores)

(* The number of bits that hold the values 0 .. n - 1. *)
let bits n =
  let rec go b = if 1 lsl b >= n then b else go (b + 1) in
  go 0

(* Call [f rank iter] for every placed instance in execution order, by
   (absolute time, node id, iteration); [placed] holds each placement's
   (rank, time), [rank] being its node id's rank among the placed ids.
   The order is one sort of int keys packing (time offset, rank,
   iteration) into bit fields; a schedule whose keys would overflow
   sorts triples instead.  Times step by [ii] per iteration with int
   wrap-around, as [time + (iter * ii)] does. *)
let in_execution_order placed ~ii ~iterations ~ranks f =
  let lo = ref max_int and hi = ref min_int in
  Array.iter
    (fun (_, time) ->
      let t = ref time in
      for _ = 1 to iterations do
        lo := Int.min !lo !t;
        hi := Int.max !hi !t;
        t := !t + ii
      done)
    placed;
  let ibits = bits iterations and rbits = bits ranks in
  let shift = ibits + rbits and span = !hi - !lo in
  if span >= 0 && shift < Sys.int_size - 1 && span <= max_int lsr shift then begin
    let keys = Array.make (Array.length placed * iterations) 0 in
    Array.iteri
      (fun p (rank, time) ->
        let t = ref (time - !lo) in
        for iter = 0 to iterations - 1 do
          keys.((p * iterations) + iter) <- (!t lsl shift) lor (rank lsl ibits) lor iter;
          t := !t + ii
        done)
      placed;
    Array.stable_sort Int.compare keys;
    Array.iter
      (fun key -> f ((key lsr ibits) land ((1 lsl rbits) - 1)) (key land ((1 lsl ibits) - 1)))
      keys
  end
  else begin
    let triples =
      Array.concat
        (Array.to_list
           (Array.map
              (fun (rank, time) ->
                Array.init iterations (fun iter -> (time + (iter * ii), rank, iter)))
              placed))
    in
    Array.stable_sort compare triples;
    Array.iter (fun (_, rank, iter) -> f rank iter) triples
  end

let run ?(binding = zero_binding) (m : Iced_mapper.Mapping.t) ~iterations =
  if iterations <= 0 then invalid_arg "Sim.run: non-positive iterations";
  let g = m.Iced_mapper.Mapping.dfg in
  let view, index = view g in
  let placements = m.Iced_mapper.Mapping.placements in
  (* the placed ids ascending, and each one's node index (-1 when the
     DFG lacks it: executing such an instance raises [Not_found], as
     [Graph.node] does) *)
  let ids = Array.of_list (List.sort_uniq compare (List.map fst placements)) in
  let rank = Hashtbl.create (Array.length ids) in
  Array.iteri (fun r id -> Hashtbl.replace rank id r) ids;
  let node_of_rank =
    Array.map (fun id -> Option.value ~default:(-1) (Hashtbl.find_opt index id)) ids
  in
  let placed =
    Array.of_list (List.map (fun (id, (_, time)) -> (Hashtbl.find rank id, time)) placements)
  in
  let memo = memo (Array.length view) ~iterations in
  let violations = ref [] in
  let executed = ref 0 in
  let stores = ref [] in
  let lookup (e : input) iter =
    if iter < 0 then None
    else begin
      let cell = cell memo e.src iter in
      if produced memo cell then memo.value.(cell)
      else begin
        (* Producer instance has not executed yet: schedule bug. *)
        violations :=
          Printf.sprintf "operand n%d@@iter%d consumed before production" e.src_id iter
          :: !violations;
        None
      end
    end
  in
  in_execution_order placed ~ii:m.Iced_mapper.Mapping.ii ~iterations ~ranks:(Array.length ids)
    (fun rank iter ->
      let node = node_of_rank.(rank) in
      if node < 0 then raise Not_found;
      incr executed;
      let v = eval_instance binding view lookup node iter in
      record memo (cell memo node iter) v;
      if view.(node).op = Op.Store then
        match store_of view lookup node iter with
        | Some event -> stores := event :: !stores
        | None -> ());
  {
    iterations;
    cycles = Metrics.total_cycles m ~iterations;
    stores = List.sort compare (List.rev !stores);
    executed = !executed;
    violations = List.rev !violations;
  }
