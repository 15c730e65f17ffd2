(** ChaCha20 (RFC 8439 core), used as the scheme's pseudorandom
    generator.

    The client tree of shares is never stored: each node's share is
    regenerated on demand from the secret seed (the 256-bit key) and
    the node's [pre] number (domain-separating the nonce), exactly the
    "pseudorandom generator with the secret seed and the pre location"
    of the paper's §5.2.  Test vectors from RFC 8439 §2.3.2 are
    checked in the test suite. *)

val key_length : int
(** 32 bytes. *)

val nonce_length : int
(** 12 bytes. *)

type state
(** A caller-owned block-function input: the constants and the key,
    expanded once, and the current nonce.  The block counter is an
    argument of {!block_into}, so one state serves a whole stream. *)

val state : key:bytes -> nonce:bytes -> state
(** Expand a key and a nonce.
    @raise Invalid_argument on wrong key or nonce length. *)

val set_nonce : state -> bytes -> unit
(** Switch the state to another 12-byte nonce, keeping the expanded
    key.  Allocates nothing.  @raise Invalid_argument on a wrong
    nonce length. *)

val block_into : state -> counter:int -> bytes -> unit
(** [block_into st ~counter out] writes keystream block [counter]
    into the first 64 bytes of [out].  Allocates nothing; every other
    entry point here wraps it.
    @raise Invalid_argument on a negative counter or an [out] shorter
    than 64 bytes. *)

val block : key:bytes -> counter:int -> nonce:bytes -> bytes
(** One 64-byte keystream block.
    @raise Invalid_argument on wrong key/nonce length or a negative
    counter. *)

val keystream : key:bytes -> nonce:bytes -> counter:int -> int -> bytes
(** [keystream ~key ~nonce ~counter len]: [len] keystream bytes
    starting at the given block counter. *)

val xor_with : key:bytes -> nonce:bytes -> counter:int -> bytes -> bytes
(** Encrypt/decrypt by xor with the keystream (the same operation both
    ways). *)
