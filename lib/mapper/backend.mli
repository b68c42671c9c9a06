(** The mapper's placement/routing strategies.

    A backend is one of three presets, reachable from every user
    surface (CLI [--backend], the serve protocol's map op, sweep
    configs); {!Mapper.map} runs the placer/router pair each one names:

    - [default] — greedy topological placement with as-you-go Dijkstra
      routing, the pair pinned byte-for-byte by the golden corpus;
    - [sa] — a seeded simulated-annealing placer ({!Anneal}) followed
      by the negotiated-congestion router;
    - [pathfinder] — greedy placement decoupled from routing, with a
      Pathfinder-style rip-up-and-reroute router ({!module-Pathfinder}).

    See [docs/MAPPER_BACKENDS.md] for the interface contract and the
    schedule constants. *)

type t =
  | Default  (** greedy placer fused with the incremental Dijkstra router *)
  | Sa of int
      (** annealing placer seeded with the payload, then the negotiated
          router; equal seeds give equal mappings *)
  | Pathfinder  (** routing-blind greedy placer, then the negotiated router *)

val default : t
(** [Default] — the golden-corpus-pinned pair. *)

val sa : t
(** [Sa] at the default seed. *)

val pathfinder : t
(** [Pathfinder]. *)

val is_default : t -> bool

val to_string : t -> string
(** Canonical name: ["default"], ["sa"] (the default seed),
    ["sa:<seed>"] or ["pathfinder"].  Used for cache keys and protocol
    frames. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}; a seed is read only in its canonical
    decimal spelling. *)

val names : string list
(** The three preset names, for CLI help and docs. *)
