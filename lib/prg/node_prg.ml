(* The fewest bytes whose values cover [0, q); no closure, so [fill]
   allocates nothing. *)
let rec bytes_covering q k cap =
  if cap >= q then k else bytes_covering q (k + 1) (cap * 256)

let bytes_needed q = bytes_covering q 1 256

(* One ChaCha20 stream per (pre, tag), read strictly in counter order:
   block [counter - 1] sits in [block] and [pos] is its next unread
   byte, so a stream never yields the same keystream byte twice. *)
type t = {
  state : Chacha20.state;  (** the seed, expanded once *)
  nonce : Bytes.t;  (** 8 bytes of pre, little-endian, then the 4-byte tag *)
  block : Bytes.t;
  mutable counter : int; [@domain_confined "caller"]
  mutable pos : int; [@domain_confined "caller"]
}

let create seed =
  let nonce = Bytes.make Chacha20.nonce_length '\000' in
  {
    state = Chacha20.state ~key:(Seed.to_bytes seed) ~nonce;
    nonce;
    block = Bytes.create 64;
    counter = 0;
    pos = 64;
  }

let start t ~pre ~tag =
  if pre < 0 then invalid_arg "Node_prg: negative pre";
  if String.length tag <> 4 then invalid_arg "Node_prg.start: tag must be 4 bytes";
  for i = 0 to 7 do
    Bytes.set_uint8 t.nonce i ((pre lsr (8 * i)) land 0xFF)
  done;
  Bytes.blit_string tag 0 t.nonce 8 4;
  Chacha20.set_nonce t.state t.nonce;
  t.counter <- 0;
  t.pos <- 64

(* Generate the stream's next block into [t.block]. *)
let refill t =
  Chacha20.block_into t.state ~counter:t.counter t.block;
  t.counter <- t.counter + 1

let next_byte t =
  if t.pos = 64 then begin
    refill t;
    t.pos <- 0
  end;
  let b = Bytes.get_uint8 t.block t.pos in
  t.pos <- t.pos + 1;
  b

(* [next_byte] unrolled into the draw loop, with the read position
   held in a local rather than in [t] until the loop ends. *)
let fill t ~pre ~q out =
  if q < 2 then invalid_arg "Node_prg: field order must be >= 2";
  start t ~pre ~tag:"poly";
  let k = bytes_needed q in
  let cap = 1 lsl (8 * k) in
  (* rejection sampling keeps the draws uniform in [0, q) *)
  let accept_below = cap - (cap mod q) in
  let block = t.block and pos = ref t.pos and i = ref 0 in
  while !i < Array.length out do
    let v = ref 0 in
    for _ = 1 to k do
      if !pos = 64 then begin
        refill t;
        pos := 0
      end;
      v := (!v lsl 8) lor Char.code (Bytes.unsafe_get block !pos);
      incr pos
    done;
    if !v < accept_below then begin
      Array.unsafe_set out !i (!v mod q);
      incr i
    end
  done;
  t.pos <- !pos

let coefficients ~seed ~pre ~q ~count =
  if pre < 0 then invalid_arg "Node_prg: negative pre";
  if count < 0 then invalid_arg "Node_prg: negative count";
  let out = Array.make count 0 in
  fill (create seed) ~pre ~q out;
  out

let client_poly ~ring ~seed ~pre =
  let n = Secshare_poly.Ring.(ring.n) and q = Secshare_poly.Ring.(ring.order) in
  Secshare_poly.Cyclic.of_int_array ring (coefficients ~seed ~pre ~q ~count:n)
