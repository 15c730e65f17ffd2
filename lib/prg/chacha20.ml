let key_length = 32
let nonce_length = 12

let le32 buf off =
  Bytes.get_uint8 buf off
  lor (Bytes.get_uint8 buf (off + 1) lsl 8)
  lor (Bytes.get_uint8 buf (off + 2) lsl 16)
  lor (Bytes.get_uint8 buf (off + 3) lsl 24)

(* Words 0-3 constants, 4-11 key, 12 counter (supplied per block),
   13-15 nonce. *)
type state = int array

let validate fn ~key ~nonce =
  if Bytes.length key <> key_length then invalid_arg (fn ^ ": key must be 32 bytes");
  if Bytes.length nonce <> nonce_length then invalid_arg (fn ^ ": nonce must be 12 bytes")

let set_nonce (st : state) nonce =
  if Bytes.length nonce <> nonce_length then
    invalid_arg "Chacha20.set_nonce: nonce must be 12 bytes";
  st.(13) <- le32 nonce 0;
  st.(14) <- le32 nonce 4;
  st.(15) <- le32 nonce 8

let state ~key ~nonce =
  validate "Chacha20.state" ~key ~nonce;
  let st = Array.make 16 0 in
  st.(0) <- 0x61707865;
  st.(1) <- 0x3320646e;
  st.(2) <- 0x79622d32;
  st.(3) <- 0x6b206574;
  for i = 0 to 7 do
    st.(4 + i) <- le32 key (4 * i)
  done;
  set_nonce st nonce;
  st

(* The RFC 8439 block function.  The sixteen working words live in
   local [Int32] refs, which the compiler keeps as unboxed mutable
   variables: 32-bit adds wrap by themselves, no word is tagged or
   masked, the 80 quarter rounds touch no memory and the call
   allocates nothing. *)
let rotl x k = Int32.logor (Int32.shift_left x k) (Int32.shift_right_logical x (32 - k))

let block_into (st : state) ~counter out =
  if counter < 0 then invalid_arg "Chacha20.block_into: negative counter";
  if Bytes.length out < 64 then
    invalid_arg "Chacha20.block_into: output shorter than 64 bytes";
  let x0 = ref (Int32.of_int st.(0)) and x1 = ref (Int32.of_int st.(1)) in
  let x2 = ref (Int32.of_int st.(2)) and x3 = ref (Int32.of_int st.(3)) in
  let x4 = ref (Int32.of_int st.(4)) and x5 = ref (Int32.of_int st.(5)) in
  let x6 = ref (Int32.of_int st.(6)) and x7 = ref (Int32.of_int st.(7)) in
  let x8 = ref (Int32.of_int st.(8)) and x9 = ref (Int32.of_int st.(9)) in
  let x10 = ref (Int32.of_int st.(10)) and x11 = ref (Int32.of_int st.(11)) in
  let x12 = ref (Int32.of_int counter) and x13 = ref (Int32.of_int st.(13)) in
  let x14 = ref (Int32.of_int st.(14)) and x15 = ref (Int32.of_int st.(15)) in
  for _ = 1 to 10 do
    (* column round: quarter rounds (0,4,8,12) (1,5,9,13) (2,6,10,14) (3,7,11,15) *)
    x0 := Int32.add !x0 !x4;  x12 := rotl (Int32.logxor !x12 !x0) 16;
    x8 := Int32.add !x8 !x12;  x4 := rotl (Int32.logxor !x4 !x8) 12;
    x0 := Int32.add !x0 !x4;  x12 := rotl (Int32.logxor !x12 !x0) 8;
    x8 := Int32.add !x8 !x12;  x4 := rotl (Int32.logxor !x4 !x8) 7;
    x1 := Int32.add !x1 !x5;  x13 := rotl (Int32.logxor !x13 !x1) 16;
    x9 := Int32.add !x9 !x13;  x5 := rotl (Int32.logxor !x5 !x9) 12;
    x1 := Int32.add !x1 !x5;  x13 := rotl (Int32.logxor !x13 !x1) 8;
    x9 := Int32.add !x9 !x13;  x5 := rotl (Int32.logxor !x5 !x9) 7;
    x2 := Int32.add !x2 !x6;  x14 := rotl (Int32.logxor !x14 !x2) 16;
    x10 := Int32.add !x10 !x14;  x6 := rotl (Int32.logxor !x6 !x10) 12;
    x2 := Int32.add !x2 !x6;  x14 := rotl (Int32.logxor !x14 !x2) 8;
    x10 := Int32.add !x10 !x14;  x6 := rotl (Int32.logxor !x6 !x10) 7;
    x3 := Int32.add !x3 !x7;  x15 := rotl (Int32.logxor !x15 !x3) 16;
    x11 := Int32.add !x11 !x15;  x7 := rotl (Int32.logxor !x7 !x11) 12;
    x3 := Int32.add !x3 !x7;  x15 := rotl (Int32.logxor !x15 !x3) 8;
    x11 := Int32.add !x11 !x15;  x7 := rotl (Int32.logxor !x7 !x11) 7;
    (* diagonal round: (0,5,10,15) (1,6,11,12) (2,7,8,13) (3,4,9,14) *)
    x0 := Int32.add !x0 !x5;  x15 := rotl (Int32.logxor !x15 !x0) 16;
    x10 := Int32.add !x10 !x15;  x5 := rotl (Int32.logxor !x5 !x10) 12;
    x0 := Int32.add !x0 !x5;  x15 := rotl (Int32.logxor !x15 !x0) 8;
    x10 := Int32.add !x10 !x15;  x5 := rotl (Int32.logxor !x5 !x10) 7;
    x1 := Int32.add !x1 !x6;  x12 := rotl (Int32.logxor !x12 !x1) 16;
    x11 := Int32.add !x11 !x12;  x6 := rotl (Int32.logxor !x6 !x11) 12;
    x1 := Int32.add !x1 !x6;  x12 := rotl (Int32.logxor !x12 !x1) 8;
    x11 := Int32.add !x11 !x12;  x6 := rotl (Int32.logxor !x6 !x11) 7;
    x2 := Int32.add !x2 !x7;  x13 := rotl (Int32.logxor !x13 !x2) 16;
    x8 := Int32.add !x8 !x13;  x7 := rotl (Int32.logxor !x7 !x8) 12;
    x2 := Int32.add !x2 !x7;  x13 := rotl (Int32.logxor !x13 !x2) 8;
    x8 := Int32.add !x8 !x13;  x7 := rotl (Int32.logxor !x7 !x8) 7;
    x3 := Int32.add !x3 !x4;  x14 := rotl (Int32.logxor !x14 !x3) 16;
    x9 := Int32.add !x9 !x14;  x4 := rotl (Int32.logxor !x4 !x9) 12;
    x3 := Int32.add !x3 !x4;  x14 := rotl (Int32.logxor !x14 !x3) 8;
    x9 := Int32.add !x9 !x14;  x4 := rotl (Int32.logxor !x4 !x9) 7
  done;
  Bytes.set_int32_le out 0 (Int32.add !x0 (Int32.of_int st.(0)));
  Bytes.set_int32_le out 4 (Int32.add !x1 (Int32.of_int st.(1)));
  Bytes.set_int32_le out 8 (Int32.add !x2 (Int32.of_int st.(2)));
  Bytes.set_int32_le out 12 (Int32.add !x3 (Int32.of_int st.(3)));
  Bytes.set_int32_le out 16 (Int32.add !x4 (Int32.of_int st.(4)));
  Bytes.set_int32_le out 20 (Int32.add !x5 (Int32.of_int st.(5)));
  Bytes.set_int32_le out 24 (Int32.add !x6 (Int32.of_int st.(6)));
  Bytes.set_int32_le out 28 (Int32.add !x7 (Int32.of_int st.(7)));
  Bytes.set_int32_le out 32 (Int32.add !x8 (Int32.of_int st.(8)));
  Bytes.set_int32_le out 36 (Int32.add !x9 (Int32.of_int st.(9)));
  Bytes.set_int32_le out 40 (Int32.add !x10 (Int32.of_int st.(10)));
  Bytes.set_int32_le out 44 (Int32.add !x11 (Int32.of_int st.(11)));
  Bytes.set_int32_le out 48 (Int32.add !x12 (Int32.of_int counter));
  Bytes.set_int32_le out 52 (Int32.add !x13 (Int32.of_int st.(13)));
  Bytes.set_int32_le out 56 (Int32.add !x14 (Int32.of_int st.(14)));
  Bytes.set_int32_le out 60 (Int32.add !x15 (Int32.of_int st.(15)))

let block ~key ~counter ~nonce =
  validate "Chacha20.block" ~key ~nonce;
  if counter < 0 then invalid_arg "Chacha20.block: negative counter";
  let out = Bytes.create 64 in
  block_into (state ~key ~nonce) ~counter out;
  out

let keystream ~key ~nonce ~counter len =
  if len < 0 then invalid_arg "Chacha20.keystream: negative length";
  let st = state ~key ~nonce in
  let out = Bytes.create len in
  let chunk = Bytes.create 64 in
  let blocks = (len + 63) / 64 in
  for b = 0 to blocks - 1 do
    block_into st ~counter:(counter + b) chunk;
    let off = b * 64 in
    Bytes.blit chunk 0 out off (min 64 (len - off))
  done;
  out

let xor_with ~key ~nonce ~counter data =
  let ks = keystream ~key ~nonce ~counter (Bytes.length data) in
  Bytes.mapi (fun i c -> Char.chr (Char.code c lxor Bytes.get_uint8 ks i)) data
