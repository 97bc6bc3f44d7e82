"""Top-level CKKS context: parameters, keys, encryption and decryption.

A :class:`CkksContext` owns everything a client or server needs:

* the RNS prime chain and special key-switching prime, declared once
  (:func:`~repro.fhe.ntt.declare_chain`) so every tuple of their primes
  shares one table set,
* the canonical-embedding encoder,
* a seeded key generator holding the secret key, and (on request)
  relinearization and Galois keys,
* encrypt/decrypt, which in the paper's deployment model run on the client,
  the one key holder (the FPGA only ever sees ciphertexts, evaluation keys
  and plaintext-encoded weights).
"""

from __future__ import annotations

import numpy as np

from ..caching import LruCache
from .ciphertext import Ciphertext, Plaintext
from .encoder import CkksEncoder
from .keys import GaloisKeys, KeyGenerator, KeySwitchKey
from .ntt import declare_chain
from .params import CkksParameters, build_prime_chain
from .poly import RnsBasis, RnsPolynomial
from .sampling import ENCRYPT, key_stream, sample_gaussian, sample_uniform


class CkksContext:
    """A fully initialized RNS-CKKS instance.

    Parameters
    ----------
    params:
        Parameter set; must be functional (word size <= 30 bits).  Use
        ``params.functional_variant()`` to narrow a model-only preset.
    seed:
        Seed for all key/encryption randomness (reproducible by design).
        The secret key, each key-switching key and encryption draw from
        their own streams of it (:func:`~repro.fhe.sampling.key_stream`).
    """

    def __init__(
        self,
        params: CkksParameters,
        seed: int = 0,
        plaintext_cache_entries: int = 8192,
    ) -> None:
        if not params.is_functional:
            raise ValueError(
                "parameter set is model-only; call params.functional_variant()"
            )
        self.params = params
        #: The encryption stream; keys draw from their own.
        self.rng = key_stream(seed, ENCRYPT)
        chain, special = build_prime_chain(params)
        self.chain_primes = chain
        self.special_prime = special
        declare_chain(params.poly_degree, chain + (special,))
        self.encoder = CkksEncoder(params.poly_degree)
        self.keygen = KeyGenerator(
            chain, special, params.poly_degree, seed, params.error_std
        )
        #: The secret in NTT form over the chain Q; :meth:`encrypt` and
        #: :meth:`decrypt` take its leading rows.
        self._secret = self.keygen.secret_key.to_basis(self.basis())
        self.relin_keys: dict[int, KeySwitchKey] = {}
        self.galois_keys: GaloisKeys = GaloisKeys()
        #: NTT-resident plaintexts keyed ``(cache_key, level, scale)`` —
        #: populated by :meth:`repro.fhe.ops.Evaluator.encode_cached` so each
        #: weight/bias/mask is encoded + transformed once per network.  A
        #: bounded LRU (rather than a bare dict) so long-lived serving
        #: contexts shared across many model instances cannot grow without
        #: limit; one entry is one ``level * N`` uint32 plaintext.
        self.plaintext_cache = LruCache(
            plaintext_cache_entries, name="plaintext"
        )

    def clear_plaintext_cache(self) -> None:
        """Drop all cached NTT-resident plaintexts."""
        self.plaintext_cache.clear()

    # -- key provisioning ---------------------------------------------------------

    def ensure_relin_keys(self, levels: list[int] | None = None) -> None:
        """Generate relinearization keys for the given levels (default: all)."""
        levels = levels if levels is not None else range(1, self.params.level + 1)
        missing = [lvl for lvl in levels if lvl not in self.relin_keys]
        if missing:
            self.relin_keys.update(self.keygen.generate_relin_keys(missing))

    def ensure_galois_keys(
        self, steps: list[int], levels: list[int] | None = None
    ) -> None:
        """Generate rotation keys for every step at every given level
        (default: all) if absent."""
        levels = levels if levels is not None else range(1, self.params.level + 1)
        self.ensure_rotation_keys([(s, lvl) for s in steps for lvl in levels])

    def ensure_rotation_keys(self, pairs: list[tuple[int, int]]) -> None:
        """Generate the Galois keys for exactly these ``(step, level)``
        pairs, skipping those already present."""
        missing = [
            p for p in dict.fromkeys(pairs) if p not in self.galois_keys.keys
        ]
        if missing:
            fresh = self.keygen.generate_galois_keys(missing)
            self.galois_keys.keys.update(fresh.keys)

    # -- bases ---------------------------------------------------------------------

    def basis(self, level: int | None = None) -> RnsBasis:
        """The RNS basis at the given level (default: full chain)."""
        level = level if level is not None else self.params.level
        return RnsBasis(self.params.poly_degree, self.chain_primes[:level])

    @property
    def scale(self) -> float:
        return self.params.scale

    @property
    def slot_count(self) -> int:
        return self.params.slot_count

    # -- encoding ------------------------------------------------------------------

    def encode(
        self,
        values: np.ndarray,
        level: int | None = None,
        scale: float | None = None,
    ) -> Plaintext:
        scale = scale if scale is not None else self.scale
        poly = self.encoder.encode(values, scale, self.basis(level))
        return Plaintext(poly=poly, scale=scale)

    def decode(self, plaintext: Plaintext) -> np.ndarray:
        return self.encoder.decode_real(plaintext.poly, plaintext.scale)

    # -- encryption ------------------------------------------------------------------

    def encrypt(self, plaintext: Plaintext) -> Ciphertext:
        """Secret-key encryption: ``ct = (-a*s + e + m, a)``.

        ``a`` is drawn uniform in the NTT domain and needs no transform.  A
        coefficient-domain message is added to ``e`` before the one forward
        transform of their sum (the NTT is linear, so ``NTT(e + m) =
        NTT(e) + NTT(m)``): one transform per ciphertext.
        """
        s = self._secret.drop_to_basis(plaintext.basis)
        a = sample_uniform(s.basis, self.rng)
        e = sample_gaussian(s.basis, self.rng, self.params.error_std)
        m = plaintext.poly
        e_m = e.to_ntt() + m if m.is_ntt else (e + m).to_ntt()
        return Ciphertext(components=(e_m - a * s, a), scale=plaintext.scale)

    def encrypt_values(
        self, values: np.ndarray, level: int | None = None
    ) -> Ciphertext:
        """Encode then encrypt a slot vector in one step."""
        return self.encrypt(self.encode(values, level))

    def decrypt(self, ciphertext: Ciphertext) -> Plaintext:
        """Decrypt ``sum_k c_k * s^k`` (handles 2- and 3-component cts)."""
        s = self._secret.drop_to_basis(ciphertext.basis)
        acc: RnsPolynomial = ciphertext.components[0].to_ntt()
        s_power = s
        for comp in ciphertext.components[1:]:
            acc = acc + comp.to_ntt() * s_power
            s_power = s_power * s
        return Plaintext(poly=acc, scale=ciphertext.scale)

    def decrypt_values(self, ciphertext: Ciphertext) -> np.ndarray:
        """Decrypt and decode to real slot values."""
        return self.decode(self.decrypt(ciphertext))
