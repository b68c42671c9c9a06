(** The fabric-wide DVFS allocator: Algorithm 3 generalized to N
    tenants under a global power cap.

    Each tenant's {!Iced_stream.Controller} still runs the paper's
    per-pipeline window adjustment and produces the levels it {e
    desires}; every shared round the allocator takes all desired
    assignments and {e grants} an assignment whose worst-case power
    envelope fits under the configured cap, demoting kernels one DVFS
    step at a time according to the arbitration {!policy} until it
    fits.

    {2 Cap semantics}

    Admission is on the {b envelope}: every allocated tile priced at
    activity 1.0 at its granted level, plus the SPM at activity 1.0,
    plus the per-island controller overhead of the whole fabric.
    {!Iced_power.Model.tile_power_mw} is monotone in activity, and
    granted levels hold for the whole round (idle time included), so
    measured fabric power is provably [<= envelope <= cap] in every
    round — the cap is a guarantee, not a target that measurement may
    overshoot.  The demotion floor is [Rest] (an allocated island is
    never gated), so every tenant always progresses: fair-share cannot
    starve anyone.  When even the all-[Rest] floor exceeds the cap the
    decision is flagged {!decision.infeasible} (cap exhaustion — see
    the runbook in docs/MULTITENANT.md) and the floor is granted as
    best effort.

    Decisions are pure functions of allocator state with all ties
    broken on tenant ids, so a decision sequence is byte-reproducible
    across runs and worker counts. *)

open Iced_arch

(** How contended power is arbitrated. *)
type policy =
  | Fair_share
      (** demote the tenant with the largest envelope share first:
          equalizes absolute power consumption *)
  | Weighted_qos
      (** demote the largest envelope {e per QoS weight} first:
          premium tenants keep proportionally more of the budget *)
  | Strict_priority
      (** exhaust the lowest-priority class down to [Rest] before
          touching the next class *)

val all_policies : policy list

val policy_to_string : policy -> string
(** ["fair-share"] / ["weighted-qos"] / ["strict-priority"]. *)

val policy_of_string : string -> policy option
(** Accepts the canonical spellings plus the short forms ["fair"],
    ["qos"], ["priority"]. *)

type member = {
  id : string;
  weight : float;  (** {!Qos.weight} of the tenant's class *)
  priority : int;  (** {!Qos.priority} of the tenant's class *)
  mutable kernel_tiles : (string * int) list;
      (** tile inventory per kernel — updated by the {!Scheduler} when
          faults reallocate islands *)
}
(** One tenant as the allocator sees it. *)

val member : id:string -> qos:Qos.class_ -> (string * int) list -> member
(** Build a member from a QoS class and a kernel -> tile-count
    inventory. *)

type decision = {
  round : int;
  desired_mw : float;  (** envelope of what the controllers asked for *)
  granted_mw : float;  (** envelope of what was granted *)
  demotions : int;  (** single-level demotion steps taken *)
  throttled : string list;  (** tenants granted less than desired *)
  infeasible : bool;  (** cap exhaustion: even all-[Rest] exceeds the cap *)
}
(** The per-round decision record, in the order rounds ran. *)

type t

val create : ?cap_mw:float -> policy:policy -> fabric:Cgra.t -> member list -> t
(** An allocator for [members] sharing [fabric] under [cap_mw]
    milliwatts (no cap when omitted).  [fabric] prices the shared SPM
    and controller-overhead envelope terms.
    @raise Invalid_argument on a cap that is not finite and positive
    (NaN and infinity included) or duplicate member ids. *)

val cap_mw : t -> float option
(** The configured cap, if any. *)

val policy : t -> policy
(** The arbitration policy this allocator was created with. *)

val decisions : t -> decision list
(** Every decision so far, oldest first — one per {!arbitrate} call. *)

val update_tiles : t -> id:string -> (string * int) list -> unit
(** Replace a member's tile inventory (fault-triggered island
    reallocation).  @raise Invalid_argument on an unknown id. *)

val envelope_mw : t -> (string * (string * Dvfs.level) list) list -> float
(** Worst-case fabric power of a per-tenant level assignment: all
    listed members' tiles at activity 1.0 at the given levels, plus the
    shared SPM and controller-overhead terms.  Unknown ids contribute
    nothing (a drained tenant's islands are gated). *)

val max_envelope_mw : t -> float
(** The all-[Normal] envelope over every member — the natural unit for
    expressing caps as fractions ({!Capsweep}). *)

val floor_envelope_mw : t -> float
(** The all-[Rest] envelope over every member: caps below this are
    infeasible by construction. *)

val arbitrate :
  t -> round:int ->
  (string * (string * Dvfs.level) list) list ->
  (string * (string * Dvfs.level) list) list
(** One global allocation step, shaped to plug directly into
    {!Iced_stream.Runner.run_shared}'s [arbitrate] hook: takes the
    active tenants' desired levels, returns the granted assignment
    (same tenants, same kernel order), and appends a {!decision}.
    Without a cap this is the identity.  With a cap, kernels are
    demoted one DVFS step at a time — the victim tenant chosen by
    {!policy}, the victim kernel by largest envelope share — until the
    envelope fits. *)
