(** Lookup and grouping of all Table I kernels. *)

val standalone : Kernel.t list
(** The ten kernels evaluated on the whole fabric (Figures 2, 4, 9-12):
    fir, latnrm, fft, dtw, spmv, conv, relu, histogram, mvt, gemm. *)

val gcn : Kernel.t list
(** The five unique GCN kernels, in pipeline order (aggregate runs
    twice in the application; see {!Iced_stream}). *)

val lu : Kernel.t list
(** The six LU kernels. *)

val all : Kernel.t list

val by_name : string -> Kernel.t option
(** Table I kernels by name, plus the {!Synth} family: any
    [rand<nodes>x<seed>] name ({!Synth.min_nodes} <= nodes <=
    {!Synth.max_nodes}) is synthesized on demand, deterministically. *)

val names : unit -> string list
(** The static Table I names only (the synthetic family is never
    enumerated). *)
