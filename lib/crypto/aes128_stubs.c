/* AES-128 block encryption (FIPS 197) in the 32-bit T-table formulation of
   the Rijndael reference code, and the AES-CMAC loop (RFC 4493) on top.

   Input and output blocks are read and written one byte at a time, so the
   results do not depend on the host byte order. The expanded key is an
   OCaml string of 44 native-order words that only this file writes and
   reads. The S-box and T-tables are the only static state: [fv_aes128_init]
   fills them when the OCaml module is initialised, before any domain
   starts, and nothing writes them afterwards. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

static uint8_t sbox[256];
static uint32_t te[4][256];

static inline uint8_t xtime(uint8_t b)
{
  return (uint8_t)((b << 1) ^ ((b & 0x80) ? 0x1b : 0));
}

static inline uint8_t rotl8(uint8_t x, int n)
{
  return (uint8_t)((x << n) | (x >> (8 - n)));
}

static inline uint32_t ror32(uint32_t x, int n)
{
  return (x >> n) | (x << (32 - n));
}

static inline uint32_t load32_be(const unsigned char *p)
{
  return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16)
         | ((uint32_t)p[2] << 8) | (uint32_t)p[3];
}

static inline void store32_be(unsigned char *p, uint32_t v)
{
  p[0] = (unsigned char)(v >> 24);
  p[1] = (unsigned char)(v >> 16);
  p[2] = (unsigned char)(v >> 8);
  p[3] = (unsigned char)v;
}

value fv_aes128_init(value unit)
{
  /* Walk GF(2^8)* with p = 3^i and q = 3^-i: q is p's inverse, and the
     S-box is the affine transform of the inverse. */
  uint8_t p = 1, q = 1;
  int x;
  (void)unit;
  do {
    p = (uint8_t)(p ^ (p << 1) ^ ((p & 0x80) ? 0x1b : 0));
    q ^= (uint8_t)(q << 1);
    q ^= (uint8_t)(q << 2);
    q ^= (uint8_t)(q << 4);
    if (q & 0x80) q ^= 0x09;
    sbox[p] = (uint8_t)(q ^ rotl8(q, 1) ^ rotl8(q, 2) ^ rotl8(q, 3)
                        ^ rotl8(q, 4) ^ 0x63);
  } while (p != 1);
  sbox[0] = 0x63;
  /* Te0[x] = [2s, s, s, 3s] as a big-endian word; Te1..Te3 rotate it. */
  for (x = 0; x < 256; x++) {
    uint8_t s = sbox[x];
    uint32_t w = ((uint32_t)xtime(s) << 24) | ((uint32_t)s << 16)
                 | ((uint32_t)s << 8) | (uint32_t)(xtime(s) ^ s);
    te[0][x] = w;
    te[1][x] = ror32(w, 8);
    te[2][x] = ror32(w, 16);
    te[3][x] = ror32(w, 24);
  }
  return Val_unit;
}

static inline uint32_t sub_word(uint32_t w)
{
  return ((uint32_t)sbox[w >> 24] << 24) | ((uint32_t)sbox[(w >> 16) & 0xff] << 16)
         | ((uint32_t)sbox[(w >> 8) & 0xff] << 8) | (uint32_t)sbox[w & 0xff];
}

/* [key]: 16 bytes; [rk]: 176 bytes, filled with the 44 round-key words.
   OCaml heap blocks are word-aligned, so [rk] holds uint32_t directly. */
value fv_aes128_expand(value key, value rk)
{
  const unsigned char *k = (const unsigned char *)String_val(key);
  uint32_t *w = (uint32_t *)Bytes_val(rk);
  uint8_t rcon = 1;
  int i;
  for (i = 0; i < 4; i++) w[i] = load32_be(k + 4 * i);
  for (i = 4; i < 44; i++) {
    uint32_t t = w[i - 1];
    if (i % 4 == 0) {
      t = sub_word((t << 8) | (t >> 24)) ^ ((uint32_t)rcon << 24);
      rcon = xtime(rcon);
    }
    w[i] = w[i - 4] ^ t;
  }
  return Val_unit;
}

/* One block; [in] and [out] may alias. */
static void aes128_encrypt(const uint32_t *w, const unsigned char *in,
                           unsigned char *out)
{
  uint32_t s0 = load32_be(in) ^ w[0], s1 = load32_be(in + 4) ^ w[1];
  uint32_t s2 = load32_be(in + 8) ^ w[2], s3 = load32_be(in + 12) ^ w[3];
  uint32_t t0, t1, t2, t3;
  int r;
  for (r = 1; r < 10; r++) {
    const uint32_t *k = w + 4 * r;
    t0 = te[0][s0 >> 24] ^ te[1][(s1 >> 16) & 0xff] ^ te[2][(s2 >> 8) & 0xff]
         ^ te[3][s3 & 0xff] ^ k[0];
    t1 = te[0][s1 >> 24] ^ te[1][(s2 >> 16) & 0xff] ^ te[2][(s3 >> 8) & 0xff]
         ^ te[3][s0 & 0xff] ^ k[1];
    t2 = te[0][s2 >> 24] ^ te[1][(s3 >> 16) & 0xff] ^ te[2][(s0 >> 8) & 0xff]
         ^ te[3][s1 & 0xff] ^ k[2];
    t3 = te[0][s3 >> 24] ^ te[1][(s0 >> 16) & 0xff] ^ te[2][(s1 >> 8) & 0xff]
         ^ te[3][s2 & 0xff] ^ k[3];
    s0 = t0; s1 = t1; s2 = t2; s3 = t3;
  }
  /* Final round: SubBytes, ShiftRows and AddRoundKey, no MixColumns. */
#define FIN(a, b, c, d, k)                                              \
  ((((uint32_t)sbox[(a) >> 24] << 24) | ((uint32_t)sbox[((b) >> 16) & 0xff] << 16) \
    | ((uint32_t)sbox[((c) >> 8) & 0xff] << 8) | (uint32_t)sbox[(d) & 0xff]) ^ (k))
  store32_be(out, FIN(s0, s1, s2, s3, w[40]));
  store32_be(out + 4, FIN(s1, s2, s3, s0, w[41]));
  store32_be(out + 8, FIN(s2, s3, s0, s1, w[42]));
  store32_be(out + 12, FIN(s3, s0, s1, s2, w[43]));
#undef FIN
}

/* [src] and [dst]: 16-byte buffers, possibly the same one. */
value fv_aes128_encrypt(value rk, value src, value dst)
{
  aes128_encrypt((const uint32_t *)String_val(rk),
                 (const unsigned char *)String_val(src), Bytes_val(dst));
  return Val_unit;
}

/* AES-CMAC of [msg] into the 16 bytes of [out]; [sub] is K1 followed by
   K2. Every block but the last is chained as is; the last is xored with
   K1 when complete, else padded with 10..0 and xored with K2. */
value fv_aes128_cmac(value rk, value sub, value msg, value out)
{
  const uint32_t *w = (const uint32_t *)String_val(rk);
  const unsigned char *k1 = (const unsigned char *)String_val(sub);
  const unsigned char *k2 = k1 + 16;
  const unsigned char *p = (const unsigned char *)String_val(msg);
  size_t len = caml_string_length(msg);
  size_t n = len == 0 ? 1 : (len + 15) / 16;
  size_t last_len = len - 16 * (n - 1);
  unsigned char x[16], last[16];
  size_t i;
  int j;
  memset(x, 0, sizeof x);
  for (i = 0; i + 1 < n; i++, p += 16) {
    for (j = 0; j < 16; j++) x[j] ^= p[j];
    aes128_encrypt(w, x, x);
  }
  if (last_len == 16) {
    for (j = 0; j < 16; j++) x[j] ^= p[j] ^ k1[j];
  } else {
    memset(last, 0, sizeof last);
    memcpy(last, p, last_len);
    last[last_len] = 0x80;
    for (j = 0; j < 16; j++) x[j] ^= last[j] ^ k2[j];
  }
  aes128_encrypt(w, x, Bytes_val(out));
  return Val_unit;
}
