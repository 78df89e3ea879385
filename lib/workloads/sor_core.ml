type params = {
  rows : int;
  cols : int;
  omega : float;
  top : float;
  bottom : float;
  left : float;
  right : float;
  point_cpu : float;
}

(* point_cpu ≈ 30 µs: a five-point stencil with an over-relaxation blend
   is a handful of floating-point operations, each several µs on a CVAX. *)
let default =
  {
    rows = 122;
    cols = 842;
    omega = 1.5;
    top = 100.0;
    bottom = 0.0;
    left = 0.0;
    right = 0.0;
    point_cpu = 30e-6;
  }

let with_size p ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Sor_core.with_size";
  { p with rows; cols }

let interior_points p = p.rows * p.cols

type color = Red | Black

let color_of ~r ~c = if (r + c) land 1 = 0 then Red else Black

type acc = { mutable max_change : float }

(* The block is checked once; the loop then reads and writes without
   bounds checks.  A row's points of [color] are every other column from
   the first one of that color, which alternates between [c_from] and
   [c_from + 1] from row to row.  The largest change stays in a local
   (unboxed) until the block is done. *)
let relax_block (cells : float array) ~stride ~omega ~col0 color ~r_from
    ~r_to ~c_from ~c_to acc =
  if r_from > r_to || c_from > c_to then 0
  else begin
    if r_from < 1 || c_from < 1 || c_to > stride - 2
       || r_to > (Array.length cells / stride) - 2
    then invalid_arg "Sor_core.relax_block: block outside the grid";
    let want = match color with Red -> 0 | Black -> 1 in
    let skip = ref ((r_from + col0 + c_from - 1 + want) land 1) in
    let points = ref 0 and max_change = ref acc.max_change in
    for r = r_from to r_to do
      let row = r * stride in
      let first = c_from + !skip in
      if first <= c_to then points := !points + ((c_to - first) / 2) + 1;
      let i = ref (row + first) and last = row + c_to in
      while !i <= last do
        let k = !i in
        let old = Array.unsafe_get cells k in
        let avg =
          (Array.unsafe_get cells (k - 1)
          +. Array.unsafe_get cells (k + 1)
          +. Array.unsafe_get cells (k - stride)
          +. Array.unsafe_get cells (k + stride))
          *. 0.25
        in
        let next = old +. (omega *. (avg -. old)) in
        Array.unsafe_set cells k next;
        let d = Float.abs (next -. old) in
        if d > !max_change then max_change := d;
        i := k + 2
      done;
      skip := 1 - !skip
    done;
    acc.max_change <- !max_change;
    !points
  end

module Full_grid = struct
  type t = { rows : int; cols : int; cells : float array }

  (* Row-major over (rows+2) × (cols+2); interior is 1-based. *)
  let idx t ~r ~c = (r * (t.cols + 2)) + c

  let create (p : params) =
    let t =
      { rows = p.rows; cols = p.cols;
        cells = Array.make ((p.rows + 2) * (p.cols + 2)) 0.0 }
    in
    for c = 0 to p.cols + 1 do
      t.cells.(idx t ~r:0 ~c) <- p.top;
      t.cells.(idx t ~r:(p.rows + 1) ~c) <- p.bottom
    done;
    for r = 1 to p.rows do
      t.cells.(idx t ~r ~c:0) <- p.left;
      t.cells.(idx t ~r ~c:(p.cols + 1)) <- p.right
    done;
    t

  let get t ~r ~c = t.cells.(idx t ~r ~c)
  let set t ~r ~c v = t.cells.(idx t ~r ~c) <- v

  let sweep t (p : params) color =
    let acc = { max_change = 0.0 } in
    ignore
      (relax_block t.cells ~stride:(t.cols + 2) ~omega:p.omega ~col0:1 color
         ~r_from:1 ~r_to:t.rows ~c_from:1 ~c_to:t.cols acc
        : int);
    acc.max_change

  let iterate t p =
    let d1 = sweep t p Red in
    let d2 = sweep t p Black in
    Float.max d1 d2

  let checksum t =
    let acc = ref 0.0 in
    for r = 1 to t.rows do
      for c = 1 to t.cols do
        acc := !acc +. t.cells.(idx t ~r ~c)
      done
    done;
    !acc

  let interior t =
    Array.init (t.rows * t.cols) (fun k ->
        let r = (k / t.cols) + 1 and c = (k mod t.cols) + 1 in
        t.cells.(idx t ~r ~c))
end

let reference p ~iters =
  let g = Full_grid.create p in
  for _ = 1 to iters do
    ignore (Full_grid.iterate g p : float)
  done;
  g

let iterations_to_converge p ~eps ~max_iters =
  let g = Full_grid.create p in
  let rec go i =
    if i >= max_iters then (i, g)
    else begin
      let d = Full_grid.iterate g p in
      if d < eps then (i + 1, g) else go (i + 1)
    end
  in
  go 0
