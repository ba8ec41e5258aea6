"""Fitting a variance and weighing two likelihoods.

The Gaussian likelihood with a known mean has an inverse-gamma
conjugate posterior, so the exact answer is one line of algebra.  The
quadrature evidence integral must agree with the closed form, and it
keeps working for likelihoods with no conjugate shortcut.  The last
section lets a Gaussian and an exponential model compete for a sample
that is genuinely exponential.
"""
import math

import numpy as np

from betsim import (
    DataSet,
    InvGammaParams,
    ModelSpec,
    conjugate_variance_posterior,
    log_evidence,
    model_posteriors,
    select_model,
)
from betsim import rng as streams

gen = streams.stream(42, streams.GENERIC)
data = DataSet(gen.normal(0.0, math.sqrt(2.5), 400), mu=0.0)
prior = InvGammaParams(alpha=3.0, beta=4.0)

post = conjugate_variance_posterior(prior, data)
print(f"observed {data.n} draws with true variance 2.5")
print(f"prior        alpha={prior.alpha:.1f} beta={prior.beta:.1f}")
print(f"posterior    alpha={post.alpha:.1f} beta={post.beta:.1f}")
print(f"posterior mean of the variance: {post.beta / (post.alpha - 1):.4f}")

# closed-form marginal likelihood for the Gaussian model
n = data.n
s = data.squared_deviation_sum()
closed = (
    -0.5 * n * math.log(2 * math.pi)
    + prior.alpha * math.log(prior.beta)
    + math.lgamma(prior.alpha + n / 2)
    - math.lgamma(prior.alpha)
    - (prior.alpha + n / 2) * math.log(prior.beta + s / 2)
)
spec = ModelSpec(id=0, likelihood_kind="gaussian-known-mean", prior=prior)
quad = log_evidence(spec, data)
print()
print(f"log evidence, closed form  {closed:.10f}")
print(f"log evidence, quadrature   {quad:.10f}")
print(f"difference {abs(closed - quad):.2e}")

# model comparison on positive data
waits = DataSet(gen.exponential(0.7, 300), mu=0.0)
models = [
    ModelSpec(id=0, likelihood_kind="gaussian-known-mean", prior=InvGammaParams(2.0, 2.0)),
    ModelSpec(id=1, likelihood_kind="exponential", prior=InvGammaParams(2.0, 2.0)),
]
posts = model_posteriors(models, [0.5, 0.5], waits)
choice = select_model(posts)
print()
print("gaussian versus exponential on 300 exponential waiting times:")
for p in posts:
    print(f"  model {p.model_id}: log evidence {p.log_evidence:10.2f}  posterior {p.posterior_prob:.6f}")
print(f"selected model: {choice.best}")
