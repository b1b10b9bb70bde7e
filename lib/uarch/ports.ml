(* Bookings up to [max_ring] cycles ahead of [now] live in a ring of
   per-cycle counters indexed by [cycle mod size]. A cell is dead once the
   cycle it counts is in the past. When a booking would land on a cell
   that still counts another live cycle, the ring doubles and re-places
   its live cells; cycles that were distinct modulo the old size stay
   distinct modulo the new one, and every live ring cycle lies within
   [max_ring] of [now], so the ring never outgrows [max_ring] cells. The
   rare booking further ahead goes to the sparse [far] table, so a huge
   accelerator latency costs one entry, not a ring that spans it. *)
let max_ring = 1 lsl 16

type t = {
  width : int;
  mutable now : int;
  mutable used : int array;
  mutable cell_cycle : int array;  (* which cycle each cell counts, -1 none *)
  far : (int, int) Hashtbl.t;  (* cycle -> bookings, beyond the ring *)
  mutable far_min : int;  (* least cycle in [far], [max_int] when empty *)
}

let create ~width ~horizon =
  if width < 1 then invalid_arg "Ports.create: width below 1";
  if horizon < 2 then invalid_arg "Ports.create: horizon below 2";
  {
    width;
    now = 0;
    used = Array.make horizon 0;
    cell_cycle = Array.make horizon (-1);
    far = Hashtbl.create 8;
    far_min = max_int;
  }

let advance t ~now =
  t.now <- now;
  if now > t.far_min then begin
    Hashtbl.filter_map_inplace
      (fun c n -> if c < now then None else Some n)
      t.far;
    t.far_min <- Hashtbl.fold (fun c _ m -> min c m) t.far max_int
  end

let grow t =
  let size = 2 * Array.length t.used in
  let used = Array.make size 0 and cell_cycle = Array.make size (-1) in
  Array.iteri
    (fun i c ->
      if c >= t.now then begin
        used.(c mod size) <- t.used.(i);
        cell_cycle.(c mod size) <- c
      end)
    t.cell_cycle;
  t.used <- used;
  t.cell_cycle <- cell_cycle

(* The common probe steps (the cell counts [c], or a dead cell) stay in
   [book] and [ring] and end in tail calls, so they keep [t] and [c] in
   registers; the far table and growth are separate cold paths. *)
let rec book t c = if c >= t.far_min then book_far t c else ring t c

and ring t c =
  let idx = c mod Array.length t.used in
  let held = t.cell_cycle.(idx) in
  if held = c then
    if t.used.(idx) < t.width then begin
      t.used.(idx) <- t.used.(idx) + 1;
      c
    end
    else book t (c + 1)
  else if held < t.now && c - t.now < max_ring then begin
    t.cell_cycle.(idx) <- c;
    t.used.(idx) <- 1;
    c
  end
  else conflict t c

(* [c] has no ring booking, and its cell is live or [c] is beyond the
   ring's reach. *)
and conflict t c =
  if c - t.now >= max_ring then begin
    Hashtbl.replace t.far c 1;
    if c < t.far_min then t.far_min <- c;
    c
  end
  else begin
    grow t;
    ring t c
  end

and book_far t c =
  match Hashtbl.find_opt t.far c with
  | Some n when n < t.width ->
      Hashtbl.replace t.far c (n + 1);
      c
  | Some _ -> book t (c + 1)
  | None -> ring t c

let reserve t ~now = book t now
