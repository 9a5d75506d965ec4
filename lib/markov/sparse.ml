type t = {
  n : int;
  row_ptr : int array; (* length n + 1 *)
  col : int array; (* length nnz, sorted within each row *)
  rate : float array; (* length nnz *)
}

let of_adjacency ~n rates =
  if n <= 0 then invalid_arg (Printf.sprintf "Sparse.of_adjacency: %d states" n);
  if Array.length rates <> n then
    invalid_arg "Sparse.of_adjacency: adjacency dimension mismatch";
  let row_ptr = Array.make (n + 1) 0 in
  for s = 0 to n - 1 do
    row_ptr.(s + 1) <- row_ptr.(s) + Hashtbl.length rates.(s)
  done;
  let nnz = row_ptr.(n) in
  let col = Array.make nnz 0 in
  let rate = Array.make nnz 0. in
  for s = 0 to n - 1 do
    let lo = row_ptr.(s) in
    (* Collect the row, then sort by destination so the layout does not
       depend on hash-table iteration order. *)
    let k = ref lo in
    Hashtbl.iter
      (fun dst r ->
        col.(!k) <- dst;
        rate.(!k) <- r;
        incr k)
      rates.(s);
    let hi = row_ptr.(s + 1) in
    (* Insertion sort: rows are short (a handful of transitions). *)
    for i = lo + 1 to hi - 1 do
      let c = col.(i) and r = rate.(i) in
      let j = ref (i - 1) in
      while !j >= lo && col.(!j) > c do
        col.(!j + 1) <- col.(!j);
        rate.(!j + 1) <- rate.(!j);
        decr j
      done;
      col.(!j + 1) <- c;
      rate.(!j + 1) <- r
    done
  done;
  { n; row_ptr; col; rate }

let num_states t = t.n

let bandwidth t =
  let b = ref 0 in
  for s = 0 to t.n - 1 do
    for k = t.row_ptr.(s) to t.row_ptr.(s + 1) - 1 do
      b := Stdlib.max !b (abs (s - t.col.(k)))
    done
  done;
  !b

let check_state t s =
  if s < 0 || s >= t.n then
    invalid_arg (Printf.sprintf "Sparse: state %d out of [0, %d)" s t.n)

let exit_rate t s =
  check_state t s;
  let acc = ref 0. in
  for k = t.row_ptr.(s) to t.row_ptr.(s + 1) - 1 do
    acc := !acc +. t.rate.(k)
  done;
  !acc

let iter_row t s f =
  check_state t s;
  for k = t.row_ptr.(s) to t.row_ptr.(s + 1) - 1 do
    f ~dst:t.col.(k) ~rate:t.rate.(k)
  done

let iter t f =
  for s = 0 to t.n - 1 do
    for k = t.row_ptr.(s) to t.row_ptr.(s + 1) - 1 do
      f ~src:s ~dst:t.col.(k) ~rate:t.rate.(k)
    done
  done
