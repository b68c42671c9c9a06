open Iced_arch
open Iced_dfg

type operand_source = Register | Port of Dir.t

type output_select = From_fu | From_port of Dir.t | From_register

type slot = {
  fu : (Op.t * operand_source list) option;
  outputs : (Dir.t * output_select) list;
}

type tile_config = { tile : int; slots : slot array }

(* Where does the value of [e] enter [dst_tile]?  Through the final
   hop's port, or from the local register file when produced (or
   buffered) on the same tile. *)
let entry_port (m : Mapping.t) (e : Graph.edge) ~dst_tile ~consume_time =
  match Mapping.route_of_edge m e with
  | None | Some { hops = []; _ } -> Register
  | Some { hops; _ } -> (
    let last = List.nth hops (List.length hops - 1) in
    match Cgra.neighbor m.Mapping.cgra last.tile last.dir with
    | Some tile when tile = dst_tile ->
      (* direct hand-off only when it lands the cycle before use;
         otherwise it sat in a bypass buffer *)
      if last.time = consume_time - 1 then Port (Dir.opposite last.dir) else Register
    | _ -> Register)

let fu_config (m : Mapping.t) node tile time =
  let op = (Graph.node m.Mapping.dfg node).op in
  let sources =
    List.map
      (fun (e : Graph.edge) ->
        match (Graph.node m.Mapping.dfg e.src).op with
        | Op.Const _ -> Register (* materialized locally *)
        | _ -> entry_port m e ~dst_tile:tile ~consume_time:time)
      (Graph.predecessors m.Mapping.dfg node)
  in
  (op, sources)

(* Output-port select for a hop leaving [tile] at [time] carrying
   edge [e]. *)
let output_select (m : Mapping.t) (e : Graph.edge) ~tile ~time =
  (* produced locally the cycle before? *)
  let produced_here =
    match List.assoc_opt e.src m.Mapping.placements with
    | Some (src_tile, src_time) -> src_tile = tile && time = src_time + 1
    | None -> false
  in
  if produced_here then From_fu
  else
    match Mapping.route_of_edge m e with
    | None | Some { hops = []; _ } -> From_register
    | Some { hops; _ } -> (
      (* the hop arriving at [tile] just before [time] feeds straight
         through; anything older was buffered *)
      let incoming =
        List.find_opt
          (fun (h : Mapping.hop) ->
            match Cgra.neighbor m.Mapping.cgra h.tile h.dir with
            | Some t -> t = tile && h.time = time - 1
            | None -> false)
          hops
      in
      match incoming with
      | Some h -> From_port (Dir.opposite h.dir)
      | None -> From_register)

let generate (m : Mapping.t) =
  let ii = m.Mapping.ii in
  List.filter_map
    (fun tile ->
      let slots = Array.make ii { fu = None; outputs = [] } in
      List.iter
        (fun (time, what) ->
          let s = time mod ii in
          match what with
          | `Fu node ->
            slots.(s) <- { (slots.(s)) with fu = Some (fu_config m node tile time) }
          | `Hop (e : Graph.edge) -> (
            (* recover the hop's direction from the routes *)
            match Mapping.route_of_edge m e with
            | None -> ()
            | Some r -> (
              match
                List.find_opt
                  (fun (h : Mapping.hop) -> h.tile = tile && h.time = time)
                  r.hops
              with
              | None -> ()
              | Some h ->
                let select = output_select m e ~tile ~time in
                slots.(s) <-
                  { (slots.(s)) with outputs = (h.dir, select) :: slots.(s).outputs })))
        (Mapping.events_of_tile m tile);
      if Array.for_all (fun s -> s.fu = None && s.outputs = []) slots then None
      else Some { tile; slots })
    (List.init (Cgra.tile_count m.Mapping.cgra) (fun i -> i))

(* ------------------------------------------------------------------ *)
(* Word layout (64 bits):
     [ 0..7 ]  opcode (0 = idle)
     [ 8..15]  operand sources, 2 bits each x up to 4 operands
               (0 = none, 1 = register, 2.. = port N/S/E/W + 2)
     [16..31]  output selects, 4 bits per direction (N,S,E,W)
               (0 = off, 1 = fu, 2 = register, 3.. = from-port + 3)
     [32..47]  Const immediate low bits (when opcode is Const)        *)

let opcode_code = function
  | Op.Add -> 1 | Op.Sub -> 2 | Op.Mul -> 3 | Op.Div -> 4 | Op.Rem -> 5
  | Op.And -> 6 | Op.Or -> 7 | Op.Xor -> 8 | Op.Shl -> 9 | Op.Shr -> 10
  | Op.Cmp Op.Eq -> 11 | Op.Cmp Op.Ne -> 12 | Op.Cmp Op.Lt -> 13
  | Op.Cmp Op.Le -> 14 | Op.Cmp Op.Gt -> 15 | Op.Cmp Op.Ge -> 16
  | Op.Select -> 17 | Op.Phi -> 18 | Op.Load -> 19 | Op.Store -> 20
  | Op.Gep -> 21 | Op.Route -> 22 | Op.Const _ -> 23

let opcode_of_code = function
  | 1 -> Some Op.Add | 2 -> Some Op.Sub | 3 -> Some Op.Mul | 4 -> Some Op.Div
  | 5 -> Some Op.Rem | 6 -> Some Op.And | 7 -> Some Op.Or | 8 -> Some Op.Xor
  | 9 -> Some Op.Shl | 10 -> Some Op.Shr | 11 -> Some (Op.Cmp Op.Eq)
  | 12 -> Some (Op.Cmp Op.Ne) | 13 -> Some (Op.Cmp Op.Lt) | 14 -> Some (Op.Cmp Op.Le)
  | 15 -> Some (Op.Cmp Op.Gt) | 16 -> Some (Op.Cmp Op.Ge) | 17 -> Some Op.Select
  | 18 -> Some Op.Phi | 19 -> Some Op.Load | 20 -> Some Op.Store | 21 -> Some Op.Gep
  | 22 -> Some Op.Route | 23 -> Some (Op.Const 0) | _ -> None

let source_code = function Register -> 1 | Port d -> 2 + Dir.index d

let source_of_code = function
  | 1 -> Some Register
  | c when c >= 2 && c <= 5 -> Some (Port (Dir.of_index (c - 2)))
  | _ -> None

let select_code = function
  | From_fu -> 1
  | From_register -> 2
  | From_port d -> 3 + Dir.index d

let select_of_code = function
  | 1 -> Some From_fu
  | 2 -> Some From_register
  | c when c >= 3 && c <= 6 -> Some (From_port (Dir.of_index (c - 3)))
  | _ -> None

let encode_slot slot =
  let ( |< ) v n = Int64.shift_left (Int64.of_int v) n in
  let word = ref 0L in
  (match slot.fu with
  | None -> ()
  | Some (op, sources) ->
    word := Int64.logor !word (opcode_code op |< 0);
    List.iteri
      (fun i src ->
        if i < 4 then word := Int64.logor !word (source_code src |< (8 + (2 * i))))
      sources;
    (match op with
    | Op.Const k -> word := Int64.logor !word ((k land 0xFFFF) |< 32)
    | _ -> ()));
  List.iter
    (fun (dir, select) ->
      word := Int64.logor !word (select_code select |< (16 + (4 * Dir.index dir))))
    slot.outputs;
  !word

let decode_slot word =
  if word = 0L then None
  else begin
    let field off width =
      Int64.to_int (Int64.logand (Int64.shift_right_logical word off) (Int64.of_int ((1 lsl width) - 1)))
    in
    let fu =
      match opcode_of_code (field 0 8) with
      | None -> None
      | Some op ->
        let op = match op with Op.Const _ -> Op.Const (field 32 16) | other -> other in
        let sources =
          List.filter_map (fun i -> source_of_code (field (8 + (2 * i)) 2)) [ 0; 1; 2; 3 ]
        in
        Some (op, sources)
    in
    let outputs =
      List.filter_map
        (fun dir ->
          match select_of_code (field (16 + (4 * Dir.index dir)) 4) with
          | Some select -> Some (dir, select)
          | None -> None)
        Dir.all
    in
    Some { fu; outputs }
  end

let words config = Array.to_list (Array.map encode_slot config.slots)

let total_bits (m : Mapping.t) = 64 * m.Mapping.ii * List.length (generate m)

let pp fmt config =
  Format.fprintf fmt "tile %d:@." config.tile;
  Array.iteri
    (fun s (slot : slot) ->
      let fu =
        match slot.fu with
        | None -> "-"
        | Some (op, sources) ->
          Printf.sprintf "%s(%s)" (Op.to_string op)
            (String.concat ","
               (List.map
                  (function
                    | Register -> "reg"
                    | Port d -> "in." ^ Dir.to_string d)
                  sources))
      in
      let outs =
        String.concat " "
          (List.map
             (fun (dir, select) ->
               Printf.sprintf "out.%s<-%s" (Dir.to_string dir)
                 (match select with
                 | From_fu -> "fu"
                 | From_register -> "reg"
                 | From_port d -> "in." ^ Dir.to_string d))
             slot.outputs)
      in
      Format.fprintf fmt "  slot %d: fu=%s %s@." s fu outs)
    config.slots
