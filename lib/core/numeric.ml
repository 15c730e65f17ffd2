let modulus = (1 lsl 61) - 1
let default_scale = 2
let max_magnitude = (modulus - 1) / 2

let normalize v =
  let r = v mod modulus in
  if r < 0 then r + modulus else r

(* Elements live in [0, M) with M < 2^61, so a + b < 2^62 never
   overflows a 63-bit int. *)
let add a b =
  let s = a + b in
  if s >= modulus then s - modulus else s

let sub a b = if a >= b then a - b else a - b + modulus
let neg a = if a = 0 then 0 else modulus - a

(* Double-and-add ladder: 61 conditional additions, each staying below
   2^62.  Multiplication only runs for Shamir dealing and Lagrange
   weights — a handful of times per query or per encoded row — so the
   obviously-overflow-free form wins over a split-limb fast path. *)
let mul a b =
  let acc = ref 0 and a = ref a and b = ref b in
  while !b <> 0 do
    if !b land 1 = 1 then acc := add !acc !a;
    a := add !a !a;
    b := !b lsr 1
  done;
  !acc

let rec pow a e =
  if e = 0 then 1
  else
    let h = pow (mul a a) (e lsr 1) in
    if e land 1 = 1 then mul a h else h

let inv a = if a = 0 then raise Division_by_zero else pow a (modulus - 2)
let lift v = if v > max_magnitude then v - modulus else v

let parse_decimal ~scale s =
  if scale < 0 || scale > 18 then invalid_arg "Numeric.parse_decimal: scale outside [0, 18]";
  let s = String.trim s in
  let n = String.length s in
  if n = 0 then None
  else begin
    let negative = s.[0] = '-' in
    let start = if negative || s.[0] = '+' then 1 else 0 in
    (* one pass: integer digits, then an optional '.' and up to [scale]
       fractional digits; anything else rejects *)
    let acc = ref 0 and digits = ref 0 and frac = ref (-1) and ok = ref (start < n) in
    (try
       for i = start to n - 1 do
         match s.[i] with
         | '0' .. '9' as c ->
             incr digits;
             if !digits > 18 then raise Exit;
             acc := (!acc * 10) + (Char.code c - Char.code '0');
             if !frac >= 0 then begin
               incr frac;
               if !frac > scale then raise Exit
             end
         | '.' when !frac < 0 && i > start && i < n - 1 -> frac := 0
         | _ -> raise Exit
       done
     with Exit -> ok := false);
    if (not !ok) || !digits = 0 then None
    else begin
      let pad = scale - max 0 !frac in
      (* rescale with a per-step bound so the multiply can't overflow
         before the magnitude check *)
      let rec scaled acc i =
        if i = 0 then if acc > max_magnitude then None else Some acc
        else if acc > max_magnitude / 10 then None
        else scaled (acc * 10) (i - 1)
      in
      match scaled !acc pad with
      | None -> None
      | Some v -> Some (if negative then -v else v)
    end
  end

(* --- PRG draws ------------------------------------------------------- *)

(* The polynomial generator's block-order reader under other 4-byte
   tags, so numeric blinds and polynomial coefficients come from
   disjoint ChaCha20 streams under one seed. *)
module Node_prg = Secshare_prg.Node_prg

let mask61 = (1 lsl 61) - 1

(* 61 masked bits of an 8-byte little-endian draw are uniform over
   [0, 2^61); only the single value 2^61 - 1 = M falls outside the
   field and is redrawn *)
let rec draw prg =
  let v = ref 0 in
  for i = 0 to 7 do
    v := !v lor (Node_prg.next_byte prg lsl (8 * i))
  done;
  let v = !v land mask61 in
  if v < modulus then v else draw prg

let draws ~seed ~pre ~tag ~count =
  if pre < 0 then invalid_arg "Numeric: negative pre";
  if count < 0 then invalid_arg "Numeric: negative count";
  let prg = Node_prg.create seed in
  Node_prg.start prg ~pre ~tag;
  Array.init count (fun _ -> draw prg)

let blind_with prg ~pre =
  if pre < 0 then invalid_arg "Numeric: negative pre";
  Node_prg.start prg ~pre ~tag:"nval";
  draw prg

let blind ~seed ~pre = blind_with (Node_prg.create seed) ~pre
let dealer_draws ~seed ~pre ~count = draws ~seed ~pre ~tag:"ndea" ~count

(* --- Shamir over F_M ------------------------------------------------- *)

let shard_value ~threshold ~gen ~xs v =
  if threshold < 1 then invalid_arg "Numeric.shard_value: threshold < 1";
  let coeffs = Array.init (threshold - 1) (fun _ -> gen ()) in
  List.map
    (fun x ->
      if x <= 0 then invalid_arg "Numeric.shard_value: x must be positive";
      let x = normalize x in
      let acc = ref 0 in
      for i = Array.length coeffs - 1 downto 0 do
        acc := mul (add !acc coeffs.(i)) x
      done;
      add !acc v)
    xs

let lambdas_at_zero xs =
  let xs = List.map normalize xs in
  List.map
    (fun xi ->
      List.fold_left
        (fun acc xj -> if xj = xi then acc else mul acc (mul xj (inv (sub xj xi))))
        1 xs)
    xs

let combine ~lambdas shares =
  List.fold_left2 (fun acc l s -> add acc (mul l s)) 0 lambdas shares

let to_bytes v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  b

let of_bytes b =
  if Bytes.length b <> 8 then
    invalid_arg
      (Printf.sprintf "Numeric.of_bytes: %d-byte cell (expected 8)" (Bytes.length b));
  let v = Int64.to_int (Bytes.get_int64_le b 0) in
  if v < 0 || v >= modulus then
    invalid_arg "Numeric.of_bytes: cell is not a normalized field element";
  v
