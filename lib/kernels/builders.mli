(** Combinators shared by the kernel builders.

    Every Table I kernel has RecMII 4 or more coming from a loop-carried
    recurrence; the most common source is the predicated induction
    chain (phi -> i+step -> compare -> select -> phi), which partial
    predication produces when control flow is converted to dataflow.
    Accumulators contribute a shorter phi -> add cycle. *)

open Iced_dfg

type induction = {
  phi : int;  (** current index i *)
  next : int;  (** i + step *)
  cmp : int;  (** i + step < bound *)
  sel : int;  (** predicated next index *)
  step : int;  (** Const step *)
  bound : int;  (** Const bound *)
}

val induction : bound:int -> Graph.t -> Graph.t * induction
(** 6 nodes / 7 edges, stepping by 1; the length-4 recurrence cycle
    phi -> next -> cmp -> sel -> phi gives RecMII 4. *)

type accumulator = { phi : int; add : int }

val accumulator : ?op:Op.t -> input:int -> Graph.t -> Graph.t * accumulator
(** 2 nodes / 3 edges; a length-2 recurrence (labeled [relax] by
    Algorithm 1 since 2 <= 4/2).  [op] defaults to [Add]. *)

val load : ?label:string -> addr:int list -> Graph.t -> Graph.t * int
(** A [Load] whose address inputs are [addr] (edge order preserved). *)

val store : ?label:string -> inputs:int list -> Graph.t -> Graph.t * int

val op : ?label:string -> Op.t -> inputs:int list -> Graph.t -> Graph.t * int
(** Generic operation node fed by [inputs] in order. *)

val chain : Graph.t -> from:int -> (Op.t * int list) list -> Graph.t * int
(** Fold a linear chain: each element (op, extra_inputs) consumes the
    previous value as first operand.  Returns the last node. *)

type predicated_accumulator = {
  phi : int;
  gate : int;  (** Select(pred, phi): value kept while predicated on *)
  add : int;  (** gate + input *)
  commit : int;  (** Select(pred, add): predicated update *)
}

val predicated_accumulator :
  pred:int -> input:int -> Graph.t -> Graph.t * predicated_accumulator
(** The length-4 serial recurrence phi -> gate -> step -> commit -> phi
    (4 nodes / 7 edges) that partial predication builds for a guarded
    accumulation; marking its phi serial in the unroll spec reproduces
    the RecMII 4 -> 7 growth of spmv/gemm. *)
