open Iced_arch

type resource = Fu | Port of Dir.t

type occupant = Op_node of int | Route of { src : int; dst : int }

(* Occupancy lives in flat arrays indexed by (tile, slot, resource):
   one cell per resource of the time-space unrolling.  Resource index 0
   is the FU; 1..4 are the crossbar output ports in [Dir.all] order
   (which is also the polymorphic-compare order of [resource], so
   in-order iteration reproduces the sorted listings the hashtable
   implementation produced).  Alongside the occupancy, two counter
   arrays keep the paper's utilization numerator O(1): [slot_busy]
   counts claimed resources per (tile, slot) and [tile_busy] counts
   distinct busy slots per tile.

   Island phases are cached per (island, modulo) and stamped with the
   island's revision, which a reserve or release bumps whenever it
   turns one of the island's slots busy or idle: invalidation stays
   O(1), and an unchanged island is scanned at most once per modulo. *)

let resources = 5

let res_index = function Fu -> 0 | Port d -> 1 + Dir.index d

let res_of_index = function 0 -> Fu | r -> Port (Dir.of_index (r - 1))

type phase = [ `Broken | `Empty | `Phase of int ]

type t = {
  cgra : Cgra.t;
  ii : int;
  tiles : bool array; (* allowed sub-fabric, indexed by tile id *)
  dead : bool array; (* faulted resources: tile * resources + res *)
  occ : occupant option array; (* (tile * ii + slot) * resources + res *)
  slot_busy : int array; (* tile * ii + slot -> claimed resources *)
  tile_busy : int array; (* tile -> distinct busy slots *)
  island_rev : int array; (* island -> busy-slot set revision *)
  mutable phase_width : int; (* moduli 1..phase_width have cache cells *)
  mutable phase_stamp : int array; (* island * width + modulo - 1 -> revision, -1 = none *)
  mutable phase_value : phase array; (* same index -> cached phase *)
}

let create ?tiles ?(dead_links = []) cgra ~ii =
  if ii <= 0 then invalid_arg "Mrrg.create: non-positive II";
  let tile_count = Cgra.tile_count cgra in
  let allowed = Array.make tile_count (tiles = None) in
  (match tiles with
  | None -> ()
  | Some ids ->
    List.iter
      (fun id ->
        if id < 0 || id >= tile_count then invalid_arg "Mrrg.create: unknown tile";
        allowed.(id) <- true)
      ids);
  let dead = Array.make (tile_count * resources) false in
  List.iter
    (fun (tile, d) ->
      if tile < 0 || tile >= tile_count then
        invalid_arg "Mrrg.create: dead link on unknown tile";
      dead.((tile * resources) + res_index (Port d)) <- true)
    dead_links;
  {
    cgra;
    ii;
    tiles = allowed;
    dead;
    occ = Array.make (tile_count * ii * resources) None;
    slot_busy = Array.make (tile_count * ii) 0;
    tile_busy = Array.make tile_count 0;
    island_rev = Array.make (Cgra.island_count cgra) 0;
    phase_width = 0;
    phase_stamp = [||];
    phase_value = [||];
  }

let cgra t = t.cgra
let ii t = t.ii

let allowed t tile = tile >= 0 && tile < Array.length t.tiles && t.tiles.(tile)

let allowed_tiles t =
  List.filter (allowed t) (List.init (Cgra.tile_count t.cgra) (fun i -> i))

let slot t time =
  if time < 0 then invalid_arg "Mrrg.slot: negative time";
  time mod t.ii

let cell t ~tile ~time res = (((tile * t.ii) + slot t time) * resources) + res_index res

let occupant t ~tile ~time res = t.occ.(cell t ~tile ~time res)

let link_dead t tile res = t.dead.((tile * resources) + res_index res)

let is_free t ~tile ~time res =
  (not (link_dead t tile res)) && occupant t ~tile ~time res = None

(* The port test the router's pricing makes on every relaxation: the
   caller holds the modulo slot already, so no [time mod ii] here. *)
let port_free t ~tile ~slot dir =
  if slot < 0 || slot >= t.ii then invalid_arg "Mrrg.port_free: slot outside [0, ii)";
  let r = 1 + Dir.index dir in
  (not t.dead.((tile * resources) + r))
  && match t.occ.((((tile * t.ii) + slot) * resources) + r) with None -> true | Some _ -> false

let fu_holds_or_free t ~tile ~time node =
  allowed t tile
  && (not (link_dead t tile Fu))
  &&
  match t.occ.(cell t ~tile ~time Fu) with
  | None -> true
  | Some (Op_node n) -> n = node
  | Some (Route _) -> false

let occupant_to_string = function
  | Op_node id -> Printf.sprintf "op n%d" id
  | Route { src; dst } -> Printf.sprintf "route n%d->n%d" src dst

(* A slot of [tile] turned busy ([delta] = 1) or idle (-1): count it
   and stale the tile's island phases. *)
let slot_toggled t tile delta =
  t.tile_busy.(tile) <- t.tile_busy.(tile) + delta;
  let island = Cgra.island_of t.cgra tile in
  t.island_rev.(island) <- t.island_rev.(island) + 1

let reserve t ~tile ~time res who =
  if not (allowed t tile) then Error (Printf.sprintf "tile %d outside the sub-fabric" tile)
  else if link_dead t tile res then
    Error
      (Printf.sprintf "tile %d %s: dead link" tile
         (match res with Fu -> "fu" | Port d -> "port." ^ Dir.to_string d))
  else
    let i = cell t ~tile ~time res in
    match t.occ.(i) with
    | None ->
      t.occ.(i) <- Some who;
      let ts = (tile * t.ii) + slot t time in
      t.slot_busy.(ts) <- t.slot_busy.(ts) + 1;
      if t.slot_busy.(ts) = 1 then slot_toggled t tile 1;
      Ok ()
    | Some existing when existing = who -> Ok () (* fan-out shares the wire *)
    | Some existing ->
      Error
        (Printf.sprintf "tile %d slot %d busy with %s" tile (slot t time)
           (occupant_to_string existing))

let release t ~tile ~time res =
  let i = cell t ~tile ~time res in
  match t.occ.(i) with
  | None -> ()
  | Some _ ->
    t.occ.(i) <- None;
    let ts = (tile * t.ii) + slot t time in
    t.slot_busy.(ts) <- t.slot_busy.(ts) - 1;
    if t.slot_busy.(ts) = 0 then slot_toggled t tile (-1)

let busy t ~tile =
  let acc = ref [] in
  for s = t.ii - 1 downto 0 do
    for r = resources - 1 downto 0 do
      match t.occ.((((tile * t.ii) + s) * resources) + r) with
      | Some who -> acc := (s, res_of_index r, who) :: !acc
      | None -> ()
    done
  done;
  !acc

let busy_slots t ~tile =
  let acc = ref [] in
  for s = t.ii - 1 downto 0 do
    if t.slot_busy.((tile * t.ii) + s) > 0 then acc := s :: !acc
  done;
  !acc

let busy_slot_count t ~tile = t.tile_busy.(tile)

let tile_is_idle t tile = t.tile_busy.(tile) = 0

let scan_phase t island modulo =
  let phase = ref (-1) in
  let broken = ref false in
  List.iter
    (fun tile ->
      if allowed t tile && not !broken then
        for s = 0 to t.ii - 1 do
          if (not !broken) && t.slot_busy.((tile * t.ii) + s) > 0 then
            let p = s mod modulo in
            if !phase = -1 then phase := p else if !phase <> p then broken := true
        done)
    (Cgra.island_tiles t.cgra island);
  if !broken then `Broken else if !phase = -1 then `Empty else `Phase !phase

let island_phase t ~island ~modulo =
  if modulo <= 0 then invalid_arg "Mrrg.island_phase: non-positive modulo";
  if island < 0 || island >= Array.length t.island_rev then
    invalid_arg "Mrrg.island_phase: unknown island";
  if modulo > t.phase_width then begin
    (* the cache grows to the largest modulo asked for; the old cells
       are dropped and recomputed on demand *)
    t.phase_width <- modulo;
    t.phase_stamp <- Array.make (Array.length t.island_rev * modulo) (-1);
    t.phase_value <- Array.make (Array.length t.island_rev * modulo) `Empty
  end;
  let k = (island * t.phase_width) + modulo - 1 in
  if t.phase_stamp.(k) = t.island_rev.(island) then t.phase_value.(k)
  else begin
    let phase = scan_phase t island modulo in
    t.phase_stamp.(k) <- t.island_rev.(island);
    t.phase_value.(k) <- phase;
    phase
  end

let clone t =
  {
    t with
    occ = Array.copy t.occ;
    slot_busy = Array.copy t.slot_busy;
    tile_busy = Array.copy t.tile_busy;
    island_rev = Array.copy t.island_rev;
    phase_stamp = Array.copy t.phase_stamp;
    phase_value = Array.copy t.phase_value;
  }

let resource_to_string = function Fu -> "fu" | Port d -> "port." ^ Dir.to_string d

let pp fmt t =
  Format.fprintf fmt "mrrg ii=%d@." t.ii;
  for tile = 0 to Cgra.tile_count t.cgra - 1 do
    List.iter
      (fun (s, res, who) ->
        Format.fprintf fmt "  t%d@@%d %s: %s@." tile s (resource_to_string res)
          (occupant_to_string who))
      (busy t ~tile)
  done
