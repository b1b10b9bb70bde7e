let supported_dims = [ 2; 4; 8 ]

let update ~c ~a ~b ~i ~j ~k ~dim =
  let n = Matrix.dim a in
  if dim <= 0 || i + dim > n || j + dim > n || k + dim > n then
    invalid_arg "Mma.update: block out of range";
  for di = 0 to dim - 1 do
    for dj = 0 to dim - 1 do
      let acc = ref (Matrix.get c (i + di) (j + dj)) in
      for dk = 0 to dim - 1 do
        acc := !acc +. (Matrix.get a (i + di) (k + dk) *. Matrix.get b (k + dk) (j + dj))
      done;
      Matrix.set c (i + di) (j + dj) !acc
    done
  done

let multiply_blocked_mma ~block ~dim a b =
  let n = Matrix.dim a in
  if n <> Matrix.dim b then invalid_arg "Mma.multiply_blocked_mma: dimension mismatch";
  if block <= 0 || n mod block <> 0 then
    invalid_arg "Mma.multiply_blocked_mma: block must divide dimension";
  if dim <= 0 || block mod dim <> 0 then
    invalid_arg "Mma.multiply_blocked_mma: dim must divide block";
  let c = Matrix.create n in
  let nb = n / block and nd = block / dim in
  for bi = 0 to nb - 1 do
    for bj = 0 to nb - 1 do
      for bk = 0 to nb - 1 do
        for si = 0 to nd - 1 do
          for sj = 0 to nd - 1 do
            for sk = 0 to nd - 1 do
              update ~c ~a ~b
                ~i:((bi * block) + (si * dim))
                ~j:((bj * block) + (sj * dim))
                ~k:((bk * block) + (sk * dim))
                ~dim
            done
          done
        done
      done
    done
  done;
  c

let compute_latency dim = dim
