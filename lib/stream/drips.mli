(** The DRIPS baseline (Tan et al., HPCA 2022): dynamic rebalancing of
    pipelined streaming applications by {e reshaping} the partition —
    no DVFS, every tile always at nominal V/F.

    After each observation window, one island migrates from the kernel
    with the most slack (and more than its minimum share) to the
    bottleneck kernel, provided the precomputed mapping tables predict
    a throughput improvement.  This reproduces DRIPS's
    performance-first behaviour: it chases throughput, while ICED holds
    the partition fixed and chases energy. *)

type t

val create : ?window:int -> Partition.t -> t
(** Starts from the partition's profiled allocation. *)

val allocation : t -> (string * int) list
(** Current island count per instance. *)

val observe : t -> label:string -> busy_time:float -> unit

val input_done : t -> unit
(** On the window boundary, attempt one island migration. *)
