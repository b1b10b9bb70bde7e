type t = {
  base : int;
  mutable bump : int;  (** next never-allocated address *)
  free_lists : Free_list.t array;
  live : (int, int) Hashtbl.t;  (** block address -> class (or -1: large) *)
  large_sizes : (int, int) Hashtbl.t;  (** large block address -> bytes *)
  mutable live_bytes : int;
}

exception Out_of_memory

let default_base = 0x1000_0000
let arena_bytes = 16 * 1024 * 1024

let create ?(base = default_base) () =
  if base < 0 then invalid_arg "Tcmalloc.create: negative base";
  {
    base;
    bump = base;
    free_lists = Array.init Size_class.num_classes (fun _ -> Free_list.create ());
    live = Hashtbl.create 1024;
    large_sizes = Hashtbl.create 16;
    live_bytes = 0;
  }

let bump_alloc t bytes =
  let addr = t.bump in
  if addr + bytes > t.base + arena_bytes then raise Out_of_memory;
  t.bump <- addr + bytes;
  addr

let malloc t size =
  if size <= 0 then invalid_arg "Tcmalloc.malloc: non-positive size";
  match Size_class.of_size size with
  | Some cls ->
      let bytes = Size_class.class_bytes cls in
      let addr =
        match Free_list.pop t.free_lists.(cls) with
        | Some addr -> addr
        | None -> bump_alloc t bytes
      in
      Hashtbl.replace t.live addr cls;
      t.live_bytes <- t.live_bytes + bytes;
      addr
  | None ->
      (* Large-object path: bump allocation, 64 B aligned. *)
      let bytes = (size + 63) / 64 * 64 in
      let addr = bump_alloc t bytes in
      Hashtbl.replace t.live addr (-1);
      Hashtbl.replace t.large_sizes addr bytes;
      t.live_bytes <- t.live_bytes + bytes;
      addr

let free t addr =
  match Hashtbl.find_opt t.live addr with
  | None -> invalid_arg "Tcmalloc.free: address not allocated"
  | Some (-1) ->
      let bytes = Hashtbl.find t.large_sizes addr in
      Hashtbl.remove t.large_sizes addr;
      Hashtbl.remove t.live addr;
      t.live_bytes <- t.live_bytes - bytes
      (* Large blocks are not recycled; TCMalloc returns them to the page
         heap, which this model does not need. *)
  | Some cls ->
      Hashtbl.remove t.live addr;
      t.live_bytes <- t.live_bytes - Size_class.class_bytes cls;
      Free_list.push t.free_lists.(cls) addr

let malloc_hits_free_list t size =
  match Size_class.of_size size with
  | None -> false
  | Some cls -> not (Free_list.is_empty t.free_lists.(cls))

let live_bytes t = t.live_bytes
let class_of_block t addr =
  match Hashtbl.find_opt t.live addr with
  | Some c when c >= 0 -> Some c
  | Some _ | None -> None

(* Free-list heads live in a compact metadata block just below the
   arena, one 8-byte word per class. *)
let freelist_head_addr t cls =
  let _ = Size_class.class_bytes cls in
  t.base - (8 * Size_class.num_classes) + (8 * cls)

let check_invariants t =
  let err = ref None in
  let fail msg = if !err = None then err := Some msg in
  (* Free lists must not contain live or duplicate blocks. *)
  let seen = Hashtbl.create 256 in
  Array.iter
    (fun fl ->
      List.iter
        (fun addr ->
          if Hashtbl.mem t.live addr then
            fail (Printf.sprintf "block %#x is both live and free" addr);
          if Hashtbl.mem seen addr then
            fail (Printf.sprintf "block %#x appears twice in free lists" addr);
          Hashtbl.replace seen addr ();
          if addr < t.base || addr >= t.base + arena_bytes then
            fail (Printf.sprintf "free block %#x outside arena" addr))
        (Free_list.to_list fl))
    t.free_lists;
  Hashtbl.iter
    (fun addr _cls ->
      if addr < t.base || addr >= t.base + arena_bytes then
        fail (Printf.sprintf "live block %#x outside arena" addr))
    t.live;
  match !err with None -> Ok () | Some msg -> Error msg
