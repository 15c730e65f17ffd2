(* Designated kernel module: no allocation inside the per-coefficient
   loops, no allocating combinators anywhere in the file (ssdb_lint
   enforces the latter).  Everything is explicit index arithmetic over
   Bytes with unsafe access; the bounds are established once per call
   by the validation prologue. *)

module Table = Secshare_field.Table

let point_row tab ~point =
  if point = 0 then
    invalid_arg "Flat.point_row: evaluation at 0 is not preserved by reduction";
  Table.mul_row tab ~point

let eval_coeffs tab ~mul_row (a : int array) =
  let acc = ref 0 in
  for i = Array.length a - 1 downto 0 do
    let shifted = Char.code (Bytes.unsafe_get mul_row !acc) in
    acc := Table.unsafe_add tab shifted (Array.unsafe_get a i)
  done;
  !acc

(* Decode coefficient [i] of a Codec-packed buffer: a little-endian
   window read at bit position [i * bits].  bits <= 8 always (q <= 256),
   so a coefficient spans at most two bytes. *)
let[@inline] coeff_at buf ~bits ~mask i =
  let pos = i * bits in
  let byte = pos lsr 3 in
  let shift = pos land 7 in
  let w = Char.code (Bytes.unsafe_get buf byte) lsr shift in
  let w =
    if shift + bits <= 8 then w
    else w lor (Char.code (Bytes.unsafe_get buf (byte + 1)) lsl (8 - shift))
  in
  w land mask

let check_share fn tab ~n buf =
  let bits = Table.bits tab in
  let needed = ((n * bits) + 7) / 8 in
  if Bytes.length buf < needed then
    invalid_arg (Printf.sprintf "%s: need %d bytes, got %d" fn needed (Bytes.length buf))

let bad_coefficient fn c q =
  invalid_arg (Printf.sprintf "%s: decoded coefficient %d >= %d" fn c q)

let eval_share tab ~mul_row ~n buf =
  check_share "Flat.eval_share" tab ~n buf;
  let bits = Table.bits tab in
  let mask = (1 lsl bits) - 1 in
  let q = Table.order tab in
  let acc = ref 0 in
  for i = n - 1 downto 0 do
    let c = coeff_at buf ~bits ~mask i in
    if c >= q then bad_coefficient "Flat.eval_share" c q;
    let shifted = Char.code (Bytes.unsafe_get mul_row !acc) in
    acc := Table.unsafe_add tab shifted c
  done;
  !acc

let eval_share_batch tab ~mul_row ~n shares ~out =
  let batch = Array.length shares in
  if Array.length out < batch then
    invalid_arg
      (Printf.sprintf "Flat.eval_share_batch: out has %d slots for %d shares"
         (Array.length out) batch);
  for i = 0 to batch - 1 do
    Array.unsafe_set out i (eval_share tab ~mul_row ~n (Array.unsafe_get shares i))
  done

let add_share_into tab ~n buf ~(client : int array) ~(out : int array) =
  if Array.length client < n || Array.length out < n then
    invalid_arg "Flat.add_share_into: buffers shorter than the ring dimension";
  check_share "Flat.add_share_into" tab ~n buf;
  let bits = Table.bits tab in
  let mask = (1 lsl bits) - 1 in
  let q = Table.order tab in
  for i = 0 to n - 1 do
    let c = coeff_at buf ~bits ~mask i in
    if c >= q then bad_coefficient "Flat.add_share_into" c q;
    Array.unsafe_set out i (Table.unsafe_add tab (Array.unsafe_get client i) c)
  done

let mul_into tab ~n ~(a : int array) ~(b : int array) ~(out : int array) =
  if Array.length a < n || Array.length b < n || Array.length out < n then
    invalid_arg "Flat.mul_into: buffers shorter than the ring dimension";
  if out == a || out == b then
    invalid_arg "Flat.mul_into: out must be distinct from the operands";
  Array.fill out 0 n 0;
  for i = 0 to n - 1 do
    let ai = Array.unsafe_get a i in
    if ai <> 0 then
      for j = 0 to n - 1 do
        let k = if i + j >= n then i + j - n else i + j in
        Array.unsafe_set out k
          (Table.unsafe_add tab (Array.unsafe_get out k)
             (Table.unsafe_mul tab ai (Array.unsafe_get b j)))
      done
  done
