(** The Table II ablation variants of Lion. *)

type variant =
  | V_2pc  (** plain OCC + 2PC, no adaptation *)
  | V_s  (** Lion(S): Schism partitioning, no prediction, no batch *)
  | V_r  (** Lion(R): replica rearrangement only *)
  | V_sw  (** Lion(SW): Schism + workload prediction *)
  | V_rw  (** Lion(RW): rearrangement + prediction *)
  | V_rb  (** Lion(RB): rearrangement + batch optimisation *)
  | V_full  (** Lion: rearrangement + prediction + batch *)

val all : variant list
val name : variant -> string

val is_batch : variant -> bool
(** [V_rb] and [V_full] run on {!Batch_mode}; the rest are standard. *)

val create :
  ?seed:int -> ?use_lstm:bool -> variant -> Lion_store.Cluster.t -> Lion_protocols.Proto.t
