(** Functional semantics of the matrix-multiply-accumulate TCAs: a
    [dim x dim] sub-block update [C += A * B], the operation the 2x2, 4x4
    and 8x8 accelerators perform per invocation (paper Section IV-C). *)

val supported_dims : int list
(** [2; 4; 8] *)

val update :
  c:Matrix.t -> a:Matrix.t -> b:Matrix.t ->
  i:int -> j:int -> k:int -> dim:int -> unit
(** [update ~c ~a ~b ~i ~j ~k ~dim] performs
    [C(i..i+dim, j..j+dim) += A(i..i+dim, k..k+dim) * B(k..k+dim,
    j..j+dim)]. Raises [Invalid_argument] on out-of-range blocks. *)

val multiply_blocked_mma : block:int -> dim:int -> Matrix.t -> Matrix.t -> Matrix.t
(** The full blocked DGEMM with the inner element-wise kernel replaced by
    [dim x dim] MMA invocations — numerically identical to
    {!Matrix.multiply_naive} (validated by the test suite). *)

val compute_latency : int -> int
(** Modelled accelerator compute time for one invocation: [dim] cycles
    (a [dim^2]-lane MAC array consuming one operand column per cycle,
    Volta-tensor-core-like). *)
