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

    Telemetry: rounds go to [pf_rounds], summed overused slot counts to
    [pf_overflow]. *)

val route_all : Engine.state -> (unit, string) result
(** Route all deps of the placement in [state], appending to
    [state.routes] and reserving MRRG ports on success.  Deterministic
    for a given placement. *)
