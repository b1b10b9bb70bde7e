type t =
  | Domain of { field : string; lo : float; hi : float; actual : float }
  | Non_finite of { field : string; value : float }
  | Empty_input of { field : string }
  | Ragged_input of { field : string; expected : int; actual : int }
  | Watchdog of { cycles : int; committed : int; total : int }
  | Parse of { field : string; input : string; message : string }
  | Invalid of { field : string; message : string }
  | Task_failure of {
      job : string;
      fingerprint : string;
      exn : string;
      backtrace : string;
    }
  | Deadline of { job : string; seconds : float }

exception Error of t

let pp fmt = function
  | Domain { field; lo; hi; actual } ->
      Format.fprintf fmt "%s = %g outside [%g, %g]" field actual lo hi
  | Non_finite { field; value } ->
      Format.fprintf fmt "%s is not finite (%g)" field value
  | Empty_input { field } -> Format.fprintf fmt "%s: empty input" field
  | Ragged_input { field; expected; actual } ->
      Format.fprintf fmt "%s: ragged input (expected %d, got %d)" field
        expected actual
  | Watchdog { cycles; committed; total } ->
      Format.fprintf fmt
        "watchdog expired after %d cycles (%d of %d instructions committed)"
        cycles committed total
  | Parse { field; input; message } ->
      Format.fprintf fmt "%s: cannot parse %S (%s)" field input message
  | Invalid { field; message } -> Format.fprintf fmt "%s: %s" field message
  (* The backtrace is deliberately not part of the rendering: it varies
     with the scheduling mode (-j1 vs -jN stack shapes) and with
     OCAMLRUNPARAM, while the rendered diagnostic must be stable enough
     to appear in bit-identical failure reports. *)
  | Task_failure { job; fingerprint; exn; _ } ->
      Format.fprintf fmt "job %s (params %s) failed: uncaught exception %s"
        job fingerprint exn
  | Deadline { job; seconds } ->
      Format.fprintf fmt "job %s exceeded its %gs deadline" job seconds

let to_string d = Format.asprintf "%a" pp d

let exit_code = function
  | Parse _ -> 2
  | Domain _ -> 3
  | Non_finite _ -> 4
  | Empty_input _ -> 5
  | Ragged_input _ -> 6
  | Invalid _ -> 7
  | Watchdog _ -> 8
  | Task_failure _ -> 9
  | Deadline _ -> 10

let ok_exn = function Ok x -> x | Result.Error d -> raise (Error d)

let error_to_msg = function
  | Ok _ as ok -> ok
  | Result.Error d -> Result.Error (`Msg (to_string d))

(* Inlined, so that a [finite] inlined into another module tests and
   wraps its argument without boxing it a second time for this call. *)
let[@inline] finite_error ~field x =
  if Float.is_finite x then None else Some (Non_finite { field; value = x })

let range_error ~field ~lo ~hi x =
  if not (Float.is_finite x) then Some (Non_finite { field; value = x })
  else if x < lo || x > hi then Some (Domain { field; lo; hi; actual = x })
  else None

let positive_error ~field x =
  if not (Float.is_finite x) then Some (Non_finite { field; value = x })
  else if x <= 0.0 then
    Some (Domain { field; lo = 0.0; hi = infinity; actual = x })
  else None

let non_negative_error ~field x = range_error ~field ~lo:0.0 ~hi:infinity x

let at_least_error ~field ~min n =
  if n < min then
    Some
      (Domain { field; lo = float_of_int min; hi = infinity;
                actual = float_of_int n })
  else None

let checked x = function None -> Ok x | Some d -> Result.Error d
let finite ~field x = checked x (finite_error ~field x)
let in_range ~field ~lo ~hi x = checked x (range_error ~field ~lo ~hi x)
let positive ~field x = checked x (positive_error ~field x)
let non_negative ~field x = checked x (non_negative_error ~field x)
let at_least ~field ~min n = checked n (at_least_error ~field ~min n)
let positive_int ~field n = at_least ~field ~min:1 n

let non_empty ~field arr =
  if Array.length arr = 0 then Result.Error (Empty_input { field }) else Ok arr

let same_length ~field a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then
    Result.Error (Ragged_input { field; expected = la; actual = lb })
  else Ok ()

module Syntax = struct
  let ( let* ) r f = match r with Ok x -> f x | Result.Error _ as e -> e
  let ( let+ ) r f = match r with Ok x -> Ok (f x) | Result.Error _ as e -> e
end
