type severity = Info | Warning | Error

let severity_order = function Info -> 0 | Warning -> 1 | Error -> 2
let severity_name = function Info -> "info" | Warning -> "warning" | Error -> "error"

type t =
  | Use_before_def of { index : int; reg : int }
  | Dead_write of { index : int; reg : int; overwritten_at : int }
  | Silent_store of { index : int; addr : int; overwritten_at : int }
  | Accel_dup_read of { index : int; line : int }
  | Accel_dup_write of { index : int; line : int }
  | Accel_rw_overlap of { index : int; line : int }
  | Accel_app_overlap of { index : int; line : int; app_index : int }
  | Branch_site_conflict of { pc : int; srcs : int list }
  | Noop_accel of { index : int }
  | No_accel
  | Empty_trace
  | Config_granularity of {
      mean_instrs_per_invocation : float;
      break_even : float;
    }

let severity = function
  | Use_before_def _ -> Warning
  | Dead_write _ -> Info
  | Silent_store _ -> Info
  | Accel_dup_read _ | Accel_dup_write _ -> Warning
  | Accel_rw_overlap _ -> Info
  | Accel_app_overlap _ -> Warning
  | Branch_site_conflict _ -> Warning
  | Noop_accel _ -> Error
  | No_accel -> Info
  | Empty_trace -> Error
  | Config_granularity _ -> Warning

let rule_name = function
  | Use_before_def _ -> "use-before-def"
  | Dead_write _ -> "dead-write"
  | Silent_store _ -> "silent-store"
  | Accel_dup_read _ -> "accel-dup-read"
  | Accel_dup_write _ -> "accel-dup-write"
  | Accel_rw_overlap _ -> "accel-rw-overlap"
  | Accel_app_overlap _ -> "accel-app-overlap"
  | Branch_site_conflict _ -> "branch-site-conflict"
  | Noop_accel _ -> "noop-accel"
  | No_accel -> "no-accel"
  | Empty_trace -> "empty-trace"
  | Config_granularity _ -> "config-break-even"

let index = function
  | Use_before_def { index; _ }
  | Dead_write { index; _ }
  | Silent_store { index; _ }
  | Accel_dup_read { index; _ }
  | Accel_dup_write { index; _ }
  | Accel_rw_overlap { index; _ }
  | Accel_app_overlap { index; _ }
  | Noop_accel { index } ->
      Some index
  | Branch_site_conflict _ | No_accel | Empty_trace | Config_granularity _ ->
      None

let message = function
  | Use_before_def { index; reg } ->
      Printf.sprintf "instruction %d reads r%d before any definition" index reg
  | Dead_write { index; reg; overwritten_at } ->
      Printf.sprintf
        "instruction %d writes r%d, overwritten at %d without a read" index reg
        overwritten_at
  | Silent_store { index; addr; overwritten_at } ->
      Printf.sprintf
        "store %d to 0x%x is overwritten by store %d with no intervening load"
        index addr overwritten_at
  | Accel_dup_read { index; line } ->
      Printf.sprintf "accel %d lists line 0x%x twice in its read set" index line
  | Accel_dup_write { index; line } ->
      Printf.sprintf "accel %d lists line 0x%x twice in its write set" index
        line
  | Accel_rw_overlap { index; line } ->
      Printf.sprintf "accel %d both reads and writes line 0x%x" index line
  | Accel_app_overlap { index; line; app_index } ->
      Printf.sprintf
        "accel %d touches line 0x%x also accessed by load/store at %d (no \
         ordering is enforced between them)"
        index line app_index
  | Branch_site_conflict { pc; srcs } ->
      Printf.sprintf
        "branch site 0x%x reads %d distinct source registers (%s): aliasing \
         site_base ranges"
        pc (List.length srcs)
        (String.concat "," (List.map (Printf.sprintf "r%d") srcs))
  | Noop_accel { index } ->
      Printf.sprintf
        "accel %d has no reads, no writes and zero compute latency" index
  | No_accel -> "trace contains no accelerator invocation"
  | Empty_trace -> "trace is empty"
  | Config_granularity { mean_instrs_per_invocation; break_even } ->
      Printf.sprintf
        "mean invocation granularity (%.0f instructions per invocation) \
         sits below the modeled configuration break-even (%.0f): at this \
         rate the configuration cost outweighs the acceleration (terms \
         (T1)-(T3))"
        mean_instrs_per_invocation break_even

let to_string t =
  Printf.sprintf "%s %s: %s" (severity_name (severity t)) (rule_name t)
    (message t)


let to_json t =
  let open Tca_util.Json in
  Obj
    [
      ("rule", String (rule_name t));
      ("severity", String (severity_name (severity t)));
      ("index", match index t with Some i -> Int i | None -> Null);
      ("message", String (message t));
    ]
