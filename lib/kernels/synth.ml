(* Seeded synthetic kernels: random predicated-dataflow loop bodies
   with an exact node budget, shared by bench shoot-outs, property
   tests, and `iced explore` so every large-graph experiment draws
   from the same corpus.  Structure mirrors the Table I kernels — one
   predicated induction chain (the RecMII-4 recurrence), a body of
   binary ops / loads / accumulators over live values, and a closing
   store — so the generator stresses scale, not exotic graph shapes. *)

open Iced_dfg
open Builders
module Rng = Iced_util.Rng

let min_nodes = 8
let max_nodes = 1_000

let name ~nodes ~seed = Printf.sprintf "rand%dx%d" nodes seed

let parse_name s =
  let prefix = "rand" in
  let plen = String.length prefix in
  if String.length s <= plen || String.sub s 0 plen <> prefix then None
  else
    match String.index_from_opt s plen 'x' with
    | None -> None
    | Some i -> (
      match
        ( Iced_util.Nat.of_string (String.sub s plen (i - plen)),
          Iced_util.Nat.of_string (String.sub s (i + 1) (String.length s - i - 1)) )
      with
      | Some nodes, Some seed when nodes >= min_nodes && nodes <= max_nodes ->
        Some (nodes, seed)
      | _ -> None)

let ops = [ Op.Add; Op.Sub; Op.Mul; Op.And; Op.Or; Op.Xor; Op.Shl; Op.Shr ]

let dfg ~nodes ~seed =
  if nodes < min_nodes then
    invalid_arg
      (Printf.sprintf "Synth.dfg: need at least %d nodes (induction + body + store)"
         min_nodes);
  let rng = Rng.create (0x5ea1ed + (nodes * 0x10001) + (seed * 0x3d)) in
  let g, ind = induction ~bound:(64 + Rng.int rng 64) Graph.empty in
  let pool = ref [ ind.phi; ind.next; ind.sel ] in
  let pick () = Rng.choose rng !pool in
  let g = ref g in
  let count = ref 6 in
  (* fill the body to exactly [nodes - 1], then close with the store *)
  while !count < nodes - 1 do
    let remaining = nodes - 1 - !count in
    let roll = Rng.int rng 10 in
    if roll >= 8 && remaining >= 2 then begin
      let g', acc = accumulator ~input:(pick ()) !g in
      g := g';
      count := !count + 2;
      pool := acc.Builders.add :: !pool
    end
    else if roll >= 6 then begin
      let g', id = load ~addr:[ pick () ] !g in
      g := g';
      incr count;
      pool := id :: !pool
    end
    else begin
      let a = pick () in
      let b = pick () in
      let g', id = op (Rng.choose rng ops) ~inputs:[ a; b ] !g in
      g := g';
      incr count;
      pool := id :: !pool
    end
  done;
  let g', _ = store ~inputs:[ pick (); ind.next ] !g in
  g'

let kernel ~nodes ~seed =
  Kernel.make ~name:(name ~nodes ~seed) ~domain:Kernel.Hpc ~data:"synthetic"
    ~dfg:(dfg ~nodes ~seed) ~iterations:128 ()
