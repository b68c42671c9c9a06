(** Seeded synthetic kernels with an exact node budget.

    [rand<nodes>x<seed>] names a deterministic random loop body shaped
    like the Table I kernels: the 6-node predicated induction chain
    (RecMII 4), a body of binary ops, loads, and accumulators drawn
    over live values, and one closing store — exactly [nodes] nodes in
    total.  {!Registry.by_name} synthesizes these on demand, so bench
    shoot-outs, property tests, and [iced explore] share one
    large-graph corpus.  Equal (nodes, seed) pairs always produce the
    same graph. *)

val min_nodes : int
(** Smallest representable budget (induction + one body op + store). *)

val max_nodes : int
(** Largest budget a name may ask for, 1,000: eight times the largest
    synthetic kernel any test or bench maps, so that resolving a name
    never holds a caller long.  The daemon answers a [map] frame for
    [rand1000x1] with [deadline_ms] 500 in 0.55-0.73 s (its [timeout]
    reply) on a 2-core Xeon. *)

val name : nodes:int -> seed:int -> string
(** ["rand<nodes>x<seed>"]. *)

val parse_name : string -> (int * int) option
(** Inverse of {!name}, each number canonical
    ({!Iced_util.Nat.of_string}); [None] for anything else (including
    budgets below {!min_nodes} or above {!max_nodes}). *)

val dfg : nodes:int -> seed:int -> Iced_dfg.Graph.t
(** The generated loop body; validates by construction.
    @raise Invalid_argument when [nodes < min_nodes]. *)

val kernel : nodes:int -> seed:int -> Kernel.t
(** The graph wrapped as a kernel (domain [Hpc], synthetic data tag,
    no published statistics). *)
