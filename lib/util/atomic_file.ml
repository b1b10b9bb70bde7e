let write_with path f =
  let fail message =
    Error
      (Diag.Invalid
         { field = "Atomic_file.write"; message = path ^ ": " ^ message })
  in
  let dir = Filename.dirname path in
  match
    Filename.temp_file ~temp_dir:dir ("." ^ Filename.basename path) ".tmp"
  with
  | exception Sys_error message -> fail message
  | tmp -> (
      (* [close_out] rather than [close_out_noerr] on success: a failed
         final flush must fail the write, not rename a short file. *)
      match
        let oc = open_out_bin tmp in
        (match f oc with
        | () -> close_out oc
        | exception e ->
            close_out_noerr oc;
            raise e);
        Sys.rename tmp path
      with
      | () -> Ok ()
      | exception e -> (
          (try Sys.remove tmp with Sys_error _ -> ());
          match e with Sys_error message -> fail message | e -> raise e))

let write path contents = write_with path (fun oc -> output_string oc contents)
let write_exn path contents = Diag.ok_exn (write path contents)
