let hp_core =
  Diag.ok_exn
    (Params.core ~ipc:1.8 ~rob_size:256 ~issue_width:4 ~commit_stall:8.0 ())

let lp_core =
  Diag.ok_exn
    (Params.core ~ipc:0.5 ~rob_size:64 ~issue_width:2 ~commit_stall:4.0 ())

let arm_a72 =
  Diag.ok_exn
    (Params.core ~ipc:1.3 ~rob_size:128 ~issue_width:3 ~commit_stall:6.0 ())

let by_name s =
  match String.lowercase_ascii s with
  | "hp" -> Some hp_core
  | "lp" -> Some lp_core
  | "a72" | "arm_a72" -> Some arm_a72
  | _ -> None

let names = [ "hp"; "lp"; "a72" ]
