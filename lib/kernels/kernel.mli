(** Benchmark kernels: the Table I workloads.

    Each kernel carries a hand-built DFG for unroll factor 1 (matching
    the paper's published node/edge/RecMII statistics), an unroll
    specification from which the factor-2 variant is derived with
    {!Iced_dfg.Transform.unroll} once, on first use, the paper's
    published statistics for both factors (so tests can pin them), and
    a data binding giving the DFG functional semantics against
    synthetic inputs. *)

open Iced_dfg

type domain = Embedded | Machine_learning | Hpc | Gcn | Lu

type table_stats = {
  nodes1 : int;
  edges1 : int;
  rec_mii1 : int;
  nodes2 : int;
  edges2 : int;
  rec_mii2 : int;
}
(** The six statistics columns of Table I. *)

type t = private {
  name : string;
  domain : domain;
  data : string;  (** Table I "Data" column, e.g. "1024" or "128^2" *)
  dfg : Graph.t;
  unroll_shared : int list;
      (** nodes instantiated once when unrolling (induction variables,
          constants, shared address math) *)
  serial_phis : int list;
      (** phis whose recurrence stays serial under unrolling, growing
          RecMII (spmv/gemm-style non-reassociable dependences); other
          phis split into parallel per-copy recurrences *)
  table : table_stats option;
      (** the published Table I statistics; [None] for synthetic
          kernels *)
  binding : Iced_sim.Sim.binding;
  iterations : int;  (** loop trip count implied by the data size *)
  unrolled : Graph.t option Atomic.t;
      (** the factor-2 DFG once {!dfg_at} has built it *)
}
(** Private: {!make} is the one constructor, so [unrolled] always
    belongs to [dfg]. *)

val domain_to_string : domain -> string

val dfg_at : t -> factor:int -> Graph.t
(** [factor] 1 or 2: the DFG actually mapped.  The factor-2 graph is
    unrolled on the first call and published through [unrolled], so
    every later call, from any domain, returns the same physical graph
    (and {!Iced_dfg.Analysis}'s per-domain entry can share its
    analyses).  Two domains racing on the first call may both unroll;
    the first graph published is the one both return.
    @raise Invalid_argument for other factors. *)

val stats : Graph.t -> int * int * int
(** (nodes, edges, RecMII) of a DFG. *)

val make :
  name:string ->
  domain:domain ->
  data:string ->
  dfg:Graph.t ->
  ?unroll_shared:int list ->
  ?serial_phis:int list ->
  ?table:table_stats ->
  ?binding:Iced_sim.Sim.binding ->
  iterations:int ->
  unit ->
  t
(** Smart constructor; defaults: no shared nodes, no serial phis, no
    published statistics, zero binding. *)
