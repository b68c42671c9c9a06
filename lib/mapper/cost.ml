type strategy = Conventional | Dvfs_aware

type knobs = {
  island_affinity : bool;
      (* prefer islands whose tentative level matches the node label;
         open islands reluctantly *)
  packing : bool; (* pull slowable nodes onto busy tiles *)
  phase_alignment : bool;
      (* keep slowed islands' events on one clock phase *)
  conventional_fallback : bool;
      (* retry an II with the conventional cost model before bumping *)
}

let all_knobs =
  {
    island_affinity = true;
    packing = true;
    phase_alignment = true;
    conventional_fallback = true;
  }

(* Cost weights.  Routing dominates; DVFS terms bias island choice; the
   pack/spread term differentiates ICED from the conventional mapper. *)
type model = {
  wait : int;
  over_provision : int;
  open_island : int;
  island_raise : int;
  pack : int;
  spread : int;
  phase : int;
  route_misphase : int;
  route_open_island : int;
}

let default =
  {
    wait = 25;
    over_provision = 150;
    open_island = 250;
    island_raise = 5000;
    pack = 12;
    spread = 100;
    phase = 400;
    route_misphase = 300;
    route_open_island = 150;
  }

(* Congestion slack added to the anchor of dependent recurrence cycles
   (see [Estimate]).  Each II is attempted with every margin before the
   II is bumped. *)
let asap_margins = [ 2; 4; 8; 16; 28 ]

(* Committed-island mappings route rest-labeled chains through distant
   slow islands, so realized times run much further behind the
   estimates: give the anchor ladder more headroom. *)
let committed_margins = [ 4; 8; 16; 32; 48 ]
