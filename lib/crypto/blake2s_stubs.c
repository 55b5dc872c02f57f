/* BLAKE2s (RFC 7693): 64-byte blocks, 32-bit words, 10 rounds.

   Message bytes are assembled into words one byte at a time, and the digest
   is stored little-endian byte by byte, so the kernel gives the same digests
   on any host byte order. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

static const uint32_t blake2s_iv[8] = {
  0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
  0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

static const uint8_t blake2s_sigma[10][16] = {
  { 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15 },
  { 14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3 },
  { 11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4 },
  { 7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8 },
  { 9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13 },
  { 2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9 },
  { 12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11 },
  { 13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10 },
  { 6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5 },
  { 10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0 },
};

static inline uint32_t load32_le(const unsigned char *p)
{
  return (uint32_t)p[0] | ((uint32_t)p[1] << 8) | ((uint32_t)p[2] << 16)
         | ((uint32_t)p[3] << 24);
}

static inline void store32_le(unsigned char *p, uint32_t v)
{
  p[0] = (unsigned char)v;
  p[1] = (unsigned char)(v >> 8);
  p[2] = (unsigned char)(v >> 16);
  p[3] = (unsigned char)(v >> 24);
}

static inline uint32_t ror32(uint32_t x, int n)
{
  return (x >> n) | (x << (32 - n));
}

#define G(a, b, c, d, x, y)          \
  do {                               \
    v[a] = v[a] + v[b] + (x);        \
    v[d] = ror32(v[d] ^ v[a], 16);   \
    v[c] = v[c] + v[d];              \
    v[b] = ror32(v[b] ^ v[c], 12);   \
    v[a] = v[a] + v[b] + (y);        \
    v[d] = ror32(v[d] ^ v[a], 8);    \
    v[c] = v[c] + v[d];              \
    v[b] = ror32(v[b] ^ v[c], 7);    \
  } while (0)

/* Fold one 64-byte block into [h]; [t] counts the bytes hashed so far,
   this block included. */
static void blake2s_compress(uint32_t h[8], const unsigned char *block,
                             uint64_t t, int last)
{
  uint32_t m[16], v[16];
  int i, r;
  for (i = 0; i < 16; i++) m[i] = load32_le(block + 4 * i);
  for (i = 0; i < 8; i++) {
    v[i] = h[i];
    v[i + 8] = blake2s_iv[i];
  }
  v[12] ^= (uint32_t)t;
  v[13] ^= (uint32_t)(t >> 32);
  if (last) v[14] = ~v[14];
  for (r = 0; r < 10; r++) {
    const uint8_t *s = blake2s_sigma[r];
    G(0, 4, 8, 12, m[s[0]], m[s[1]]);
    G(1, 5, 9, 13, m[s[2]], m[s[3]]);
    G(2, 6, 10, 14, m[s[4]], m[s[5]]);
    G(3, 7, 11, 15, m[s[6]], m[s[7]]);
    G(0, 5, 10, 15, m[s[8]], m[s[9]]);
    G(1, 6, 11, 12, m[s[10]], m[s[11]]);
    G(2, 7, 8, 13, m[s[12]], m[s[13]]);
    G(3, 4, 9, 14, m[s[14]], m[s[15]]);
  }
  for (i = 0; i < 8; i++) h[i] ^= v[i] ^ v[i + 8];
}

/* The unkeyed digest of [msg], as long as [out] (1 to 32 bytes). */
value fv_blake2s_digest(value msg, value out)
{
  const unsigned char *p = (const unsigned char *)String_val(msg);
  size_t len = caml_string_length(msg);
  size_t outlen = caml_string_length(out);
  unsigned char last[64], full[32];
  uint32_t h[8];
  uint64_t t = 0;
  int i;
  memcpy(h, blake2s_iv, sizeof h);
  h[0] ^= 0x01010000 ^ (uint32_t)outlen;
  /* The final block, even a full one, is compressed with the last flag. */
  while (len > 64) {
    t += 64;
    blake2s_compress(h, p, t, 0);
    p += 64;
    len -= 64;
  }
  memset(last, 0, sizeof last);
  memcpy(last, p, len);
  t += len;
  blake2s_compress(h, last, t, 1);
  for (i = 0; i < 8; i++) store32_le(full + 4 * i, h[i]);
  memcpy(Bytes_val(out), full, outlen);
  return Val_unit;
}
