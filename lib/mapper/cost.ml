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
let wait = 25
let over_provision = 150
let open_island = 250
let island_raise = 5000
let pack = 12
let spread = 100
let phase = 400
let route_misphase = 300
let route_open_island = 150

(* Congestion slack added to the anchor of dependent recurrence cycles
   (see [Estimate]).  Each II is attempted with every margin before the
   II is bumped. *)
let asap_margins = [ 2; 4; 8; 16; 28 ]

(* Committed-island mappings route rest-labeled chains through distant
   slow islands, so realized times run much further behind the
   estimates: give the anchor ladder more headroom. *)
let committed_margins = [ 4; 8; 16; 32; 48 ]
