(** The paper's two streaming applications (Section IV-B, Figure 13):
    GCN inference over ENZYMES-like graphs and LU decomposition over
    UFL-like matrices.

    Every edge that runs one ([iced stream], the daemon's [stream] op,
    fault campaigns, the Figure 13 bench and the examples) sets it up
    here: the pipeline, the seeded dataset lifted to pipeline inputs,
    the 50-input profile and the partition on the 6x6 prototype. *)

type t = Gcn | Lu

val all : t list
(** [[Gcn; Lu]]. *)

val to_string : t -> string
(** ["gcn"] / ["lu"]. *)

val of_string : string -> t option
(** Inverse of {!to_string}; [None] on anything else. *)

val inputs : ?count:int -> t -> Pipeline.input list
(** The app's dataset, lifted to pipeline inputs: the GCN graphs of
    {!Workload.enzyme_graphs} at seed 42, or the LU matrices of
    {!Workload.ufl_matrices} at seed 7.  [count] defaults to the
    dataset size (600 graphs, 150 matrices); the generators draw in
    order, so a shorter stream is a prefix of a longer one.
    @raise Invalid_argument when [count <= 0]. *)

val partition : t -> Pipeline.input list -> (Partition.t, string) result
(** {!Partition.prepare} of the app's pipeline on
    {!Iced_arch.Cgra.iced_6x6}, profiled on every [(n / 50)]-th of the
    [n] [inputs] (all of them when [n < 100]): a stratified sample, the
    deterministic equivalent of the paper's 50 randomly picked
    instances. *)
