type t = {
  mutable attempts : int;
  mutable ii_bumps : int;
  mutable margin_position : int;
  mutable placements_tried : int;
  mutable route_calls : int;
  mutable route_failures : int;
  mutable expansions : int;
  mutable sa_moves_accepted : int;
  mutable sa_moves_rejected : int;
  mutable sa_temp_steps : int;
  mutable pf_rounds : int;
  mutable pf_overflow : int;
  mutable sat_conflicts : int;
  mutable sat_decisions : int;
  mutable sat_propagations : int;
  mutable per_ii_s : (int * float) list; (* descending II (latest first) *)
  mutable wall_s : float;
}

let create () =
  {
    attempts = 0;
    ii_bumps = 0;
    margin_position = 0;
    placements_tried = 0;
    route_calls = 0;
    route_failures = 0;
    expansions = 0;
    sa_moves_accepted = 0;
    sa_moves_rejected = 0;
    sa_temp_steps = 0;
    pf_rounds = 0;
    pf_overflow = 0;
    sat_conflicts = 0;
    sat_decisions = 0;
    sat_propagations = 0;
    per_ii_s = [];
    wall_s = 0.0;
  }

let per_ii t = List.rev t.per_ii_s

let add_ii_time t ~ii seconds = t.per_ii_s <- (ii, seconds) :: t.per_ii_s

let merge ~into src =
  into.attempts <- into.attempts + src.attempts;
  into.ii_bumps <- into.ii_bumps + src.ii_bumps;
  into.margin_position <- max into.margin_position src.margin_position;
  into.placements_tried <- into.placements_tried + src.placements_tried;
  into.route_calls <- into.route_calls + src.route_calls;
  into.route_failures <- into.route_failures + src.route_failures;
  into.expansions <- into.expansions + src.expansions;
  into.sa_moves_accepted <- into.sa_moves_accepted + src.sa_moves_accepted;
  into.sa_moves_rejected <- into.sa_moves_rejected + src.sa_moves_rejected;
  into.sa_temp_steps <- into.sa_temp_steps + src.sa_temp_steps;
  into.pf_rounds <- into.pf_rounds + src.pf_rounds;
  into.pf_overflow <- into.pf_overflow + src.pf_overflow;
  into.sat_conflicts <- into.sat_conflicts + src.sat_conflicts;
  into.sat_decisions <- into.sat_decisions + src.sat_decisions;
  into.sat_propagations <- into.sat_propagations + src.sat_propagations;
  into.per_ii_s <- src.per_ii_s @ into.per_ii_s;
  into.wall_s <- into.wall_s +. src.wall_s

let to_json t =
  let module J = Iced_util.Json in
  J.Obj
    [ ("attempts", J.int t.attempts); ("ii_bumps", J.int t.ii_bumps);
      ("margin_position", J.int t.margin_position);
      ("placements_tried", J.int t.placements_tried); ("route_calls", J.int t.route_calls);
      ("route_failures", J.int t.route_failures); ("expansions", J.int t.expansions);
      ("sa_moves_accepted", J.int t.sa_moves_accepted);
      ("sa_moves_rejected", J.int t.sa_moves_rejected); ("sa_temp_steps", J.int t.sa_temp_steps);
      ("pf_rounds", J.int t.pf_rounds); ("pf_overflow", J.int t.pf_overflow);
      ("sat_conflicts", J.int t.sat_conflicts); ("sat_decisions", J.int t.sat_decisions);
      ("sat_propagations", J.int t.sat_propagations);
      ("per_ii_s", J.Arr (List.map (fun (ii, s) -> J.Arr [ J.int ii; J.Num s ]) (per_ii t)));
      ("wall_s", J.Num t.wall_s) ]
