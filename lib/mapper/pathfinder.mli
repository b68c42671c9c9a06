(** Pathfinder-style negotiated-congestion router.

    Routes every dependence of a {e complete} placement through
    {!Router.find_path} with congestion priced rather than forbidden:
    in each round every edge is ripped up and rerouted against the
    round's present-sharing cost plus the history cost accumulated on
    ports that keep overflowing, the present factor growing
    geometrically until every port slot has a single tenant.  Once the
    negotiation settles, routes are committed to the MRRG — the result
    carries zero residual congestion, so it passes
    {!Validate.check}/{!Mapping.to_mrrg} like any other backend's.
    Fails when an edge has no path within its deadline at all, or when
    24 negotiation rounds cannot clear the overflow.  The present cost
    starts at 60 per extra occupant and doubles each round; history
    costs 40 per unit.

    It can also fail at once, before round 1 and without a route call,
    when more routes must leave a tile for other tiles than it has free
    output-port slots.  A slot is a (direction, time mod II) pair whose
    port is free and leads to a tile of the sub-fabric.  The check is
    exact: each such route holds a slot of its own in a settled
    negotiation (slots are counted and reserved per edge), and the free
    slots never change between rounds, so the negotiation it refutes
    would have failed after all 24 rounds.

    Telemetry: rounds go to [pf_rounds], summed overused slot counts to
    [pf_overflow]. *)

val route_all : Engine.state -> (unit, string) result
(** Route all deps of the placement in [state], appending to
    [state.routes] and reserving MRRG ports on success.  Deterministic
    for a given placement. *)
