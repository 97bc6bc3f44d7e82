"""Full FxHENN-MNIST encrypted inference (paper Sec. VII workload).

Runs the paper's 5-layer LoLa-MNIST topology (Cnv1, Act1, Fc1, Act2, Fc2)
on an encrypted synthetic image and verifies the decrypted logits against
the plaintext reference.

By default the run uses the paper's exact HE parameters (N=8192, 30-bit
primes, L=7), which takes a few minutes of pure-Python FHE — pass
``--fast`` to run a reduced N=2048 variant of the same topology in
seconds.  At N=2048, LoLa's Fc1 packing would degenerate to 100 one-row
chunks, so Fc1 runs as a baby-step/giant-step diagonal matmul instead
(25 KeySwitches instead of 1000); the other layers are LoLa's.

Usage::

    python examples/mnist_encrypted_inference.py --fast
    python examples/mnist_encrypted_inference.py          # paper parameters
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.fhe import CkksContext, CkksParameters, OperationRecorder
from repro.fhe.params import fxhenn_mnist_params
from repro.hecnn import fxhenn_mnist_model, synthetic_mnist_image


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fast", action="store_true",
        help="run at N=2048 instead of the paper's N=8192",
    )
    parser.add_argument("--seed", type=int, default=4, help="image seed")
    args = parser.parse_args()

    if args.fast:
        params = CkksParameters(
            poly_degree=2048, prime_bits=28, level=7, scale_bits=26
        )
    else:
        params = fxhenn_mnist_params()
    print(f"parameters: N={params.poly_degree}, {params.prime_bits}-bit "
          f"primes, L={params.level} "
          f"(log2 Q = {params.coeff_modulus_bits})")

    model = fxhenn_mnist_model(seed=0, params=params)
    trace = model.trace()
    print(f"network: {model.name} — {trace.hop_count} HOPs, "
          f"{trace.keyswitch_count} KeySwitch ops")

    t0 = time.time()
    context = CkksContext(params, seed=1)
    model.provision_keys(context)
    print(f"key generation: {time.time() - t0:.1f} s "
          f"({len(context.galois_keys.keys)} rotation keys)")

    image = synthetic_mnist_image(seed=args.seed)
    plain_logits = model.infer_plain(image)

    t0 = time.time()
    recorder = OperationRecorder()
    encrypted_logits = model.infer(context, image, recorder=recorder)
    elapsed = time.time() - t0

    print(f"\nencrypted inference: {elapsed:.1f} s wall clock "
          f"(software FHE; the paper's accelerator: 0.24 s on ACU9EG)")
    print(f"executed HE operations: {recorder.total} "
          f"(trace predicted {trace.hop_count})")
    print(f"\n{'class':>6s} {'plaintext':>12s} {'encrypted':>12s}")
    for i, (p, e) in enumerate(zip(plain_logits, encrypted_logits)):
        print(f"{i:6d} {p:12.5f} {e:12.5f}")
    err = np.max(np.abs(encrypted_logits - plain_logits))
    print(f"\nmax CKKS error: {err:.2e}")
    pred_plain = int(np.argmax(plain_logits))
    pred_enc = int(np.argmax(encrypted_logits))
    print(f"argmax agreement: plaintext={pred_plain} encrypted={pred_enc} "
          f"{'OK' if pred_plain == pred_enc else 'MISMATCH'}")


if __name__ == "__main__":
    main()
