"""Forward (Schroedinger-picture) reference evaluators for the analytic routes.

Every sequence probability pushes the state forward through each blockade
map, Gaussian-averaged exchange channel and rotation; the pipeline does that
for each of the 16 inputs and each sequence; the threshold search rebuilds
the gate output at every point.  They are slow and share no code with
``effect_polynomial``, which makes them the reference the back-propagated
routes must reproduce.  chi is assembled here label by label, the channel
action on each unit matrix written out from the inputs, independently of
the weight matrix ``assemble_channel_action`` applies.

``sample_cnot_unitary`` is the Monte Carlo counterpart: one noisy-CNOT
realization built literally from its pulse sequence, the reference for the
gate coordinates of ``tomography._mc_gate_coords``; ``gate_output_batch``
builds the same gate for a batch of trajectories as states.
``replay_weights`` runs each trajectory's state through a sequence step by
step, drawing a readout branch and collapsing and renormalizing at every
projection; ``branch_summed_replay`` averages it over every branch pattern,
the reference for the weight forms of ``blockade.TrajectoryFeatures``, which
read a state by its ``state_features``, and for the weights that
``blockade.propagate_sequence_samples`` thins; ``long_sequence_sequences`` is a
design whose first sequence is too long for a weight form and makes a step group.
``weight_coefficients`` folds the input bases into the weight forms at one
``r`` and ``mean_trajectory_features`` gives the exact mean of the
trajectory features, step groups included, so the Monte Carlo map
``TomographyDesign.monte_carlo_map`` can be checked against ``forward_chi``
without sampling.  ``trajectory_feature_series`` writes the same features as
finite Fourier series in their Gaussian phases, so
``trajectory_feature_covariance`` gives their covariance and
``quadratic_form_moments`` the fourth moments behind the spread of a reported
Monte Carlo variance exactly, the oracle for ``stderr``.
``ideal_effect_operator`` is ``effect_polynomial`` at ``r = D = 1``, the
effect that ``tomography.design_from_sequences`` takes for each sequence, and
``identity_channel`` the channel of the 4x4 identity.
``exchange_coherence`` is the singlet-triplet part of an averaged exchange
pulse at its mean time, the part ``EXCHANGE_PARTS`` weights by cos and sin
of the phase.  ``split_cnot_channel`` averages the same gate a second way,
through the sum and difference of its two pulse durations, the reference
for ``noisy_cnot_channel``; ``compose`` chains its channels.
``ideal_check_deviations`` is ``ideal-check``'s check written one sample at a
time: one scalar draw, one eigendecomposition and four 4x4 products per
sample, the reference for the batched command.
``exact_characteristic_coefficients`` expands the characteristic coefficients
of a Hermitian matrix polynomial in rational arithmetic, the oracle for the
rounding bounds of the threshold search's test.

The engine works in units of 1/g; these references do not.  Each takes the
coupling g explicitly (default 1) and runs at the exchange Hamiltonian of
that g, with durations mean_time / g and dispersion noise.gdtau / g, so
comparing them with the engine at g != 1 tests that only g*delta_tau matters.
"""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from spinqpt.blockade import (
    UP,
    Evolve,
    MeasureSequence,
    Project,
    _StepGroup,
    blockade_map,
    branch_weights,
    effect_polynomial,
)
from spinqpt.dynamics import (
    CNOT_ENTRY,
    CNOT_FRAME,
    CNOT_PHASE_TIME,
    CNOT_TARGET,
    EXCHANGE_PARTS,
    NoiseParams,
    cnot_unitary,
    evolve_unitary,
    exchange_hamiltonian,
    flipflop_hamiltonian,
    gaussian_averaged_channel,
    global_rotation,
    local_rotation,
    noisy_cnot_channel,
    term_isolation_unitary,
    zz_hamiltonian,
)
from spinqpt.process_matrix import CHI_ORDER, CHI_PERM
from spinqpt.qcore import QuantumChannel, apply_channel, as_density_array, hermitize, negativity, vec
from spinqpt.tomography import (
    ENTANGLEMENT_INPUT,
    PAULI_BASIS,
    TRANSFER_TIME,
    design_sequences,
    qpt_input_states,
)


def rotation_unitary(step):
    """The ideal unitary of a rotation step."""
    if step.scope == "global":
        return global_rotation(step.axis, step.theta)
    return local_rotation(step.scope, step.axis, step.theta)


def forward_sequence_probability(seq, rho, noise, g=1.0):
    """Trace of the running operator after every step, never renormalized, at coupling g."""
    state = as_density_array(rho).copy()
    hexch = exchange_hamiltonian(g)
    for step in seq.steps:
        if isinstance(step, Project):
            state = blockade_map(state, step.declared, noise.r)
        elif isinstance(step, Evolve):
            channel = gaussian_averaged_channel(hexch, step.mean_time / g, noise.gdtau / g)
            state = apply_channel(channel, state)
        else:
            u = rotation_unitary(step)
            state = u @ state @ u.conj().T
    return float(np.trace(state).real)


def forward_reconstruct(probs, design):
    """Linear inversion of one state's 15 probabilities."""
    coeffs = np.linalg.solve(design.design_matrix, np.concatenate([probs, [1.0]]))
    return np.asarray(sum(c * b for c, b in zip(coeffs, PAULI_BASIS)), dtype=complex)


def action_from_outputs(outputs):
    """Channel action on every unit matrix E_kl from the 16 outputs, keyed by input label.

    For m < n, linearity gives

        E(E_mn) = E(|+;mn>) + i E(|-;mn>) - (1+i)/2 (E(|m><m|) + E(|n><n|)),

    and E(E_nm) is its adjoint (the outputs are Hermitian).
    """
    action = {(m, m): np.asarray(outputs[("d", m)], dtype=complex) for m in range(4)}
    for m in range(4):
        for n in range(m + 1, 4):
            g_mn = (
                outputs[("+", m, n)]
                + 1j * outputs[("-", m, n)]
                - 0.5 * (1.0 + 1j) * (outputs[("d", m)] + outputs[("d", n)])
            )
            action[(m, n)] = g_mn
            action[(n, m)] = g_mn.conj().T
    return action


def chi_from_action(action):
    """chi[(m,n),(k,l)] = action[(k,l)][m, n]: columns vec(action[kl]), rows by CHI_PERM."""
    return np.stack([vec(action[kl]) for kl in CHI_ORDER], axis=1)[CHI_PERM]


def forward_chi(probs, design):
    """chi from a 15 x 16 table of probabilities, column i for input i in qpt_input_states() order."""
    probs = np.asarray(probs, dtype=float)
    outputs = {label: forward_reconstruct(probs[:, i], design)
               for i, label in enumerate(qpt_input_states())}
    return chi_from_action(action_from_outputs(outputs))


def forward_pipeline_chi(noise, design, g=1.0):
    """Pipeline chi at coupling g: the split gate, one forward evaluation per (input, sequence) pair."""
    channel = split_cnot_channel(noise, g)
    outputs = [apply_channel(channel, rho_in) for rho_in in qpt_input_states().values()]
    probs = [[forward_sequence_probability(seq, rho, noise, g) for rho in outputs]
             for seq in design.sequences]
    return forward_chi(probs, design)


def sample_duration(tau0, delta_tau, rng):
    """One Gaussian duration draw; negative draws are legitimate evolution times."""
    return float(rng.normal(tau0, delta_tau))


def sample_cnot_unitary(noise, rng, g=1.0):
    """One noisy-CNOT realization at coupling g: CNOT_FRAME Rz_X(pi) U(s2) Rz_X(pi) U(s1) H_A.

    U(s) is the exchange pulse of duration s; s1 then s2 are drawn from
    Normal(CNOT_PHASE_TIME / 2g, noise.sampled_gdtau / 2g).
    """
    rz = local_rotation("X", "z", math.pi)
    hexch = exchange_hamiltonian(g)
    s1 = sample_duration(CNOT_PHASE_TIME / g / 2.0, noise.sampled_gdtau / g / 2.0, rng)
    s2 = sample_duration(CNOT_PHASE_TIME / g / 2.0, noise.sampled_gdtau / g / 2.0, rng)
    core = rz @ evolve_unitary(hexch, s2) @ rz @ evolve_unitary(hexch, s1)
    return CNOT_FRAME @ core @ CNOT_ENTRY


def gate_output_batch(state, n, noise, rng, g=1.0):
    """n noisy-CNOT outputs of a pure state at coupling g, rows of an (n, 4) array.

    rng draws every first pulse duration, then every second one, as
    rng.normal(CNOT_PHASE_TIME / 2g, noise.sampled_gdtau / 2g, size=(2, n)), so
    trajectory k is sample_cnot_unitary on standard normals k and n + k.  Each
    pulse runs in the eigenbasis of the exchange Hamiltonian.
    """
    s1, s2 = rng.normal(CNOT_PHASE_TIME / g / 2.0, noise.sampled_gdtau / g / 2.0, size=(2, n))
    energies, v = np.linalg.eigh(exchange_hamiltonian(g))
    rz = local_rotation("X", "z", math.pi)
    psi = np.tile(CNOT_ENTRY @ state, (n, 1))
    for durations in (s1, s2):
        psi = ((psi @ v.conj()) * np.exp(-1j * np.outer(durations, energies))) @ v.T @ rz.T
    return psi @ CNOT_FRAME.T


def state_features(psi):
    """The 16 real features Tr[P_b psi psi†] = psi† P_b psi of each row of psi, P_b the Pauli
    products of PAULI_BASIS, one column per row."""
    psi = np.asarray(psi)
    return np.array([np.sum(psi.conj() * (psi @ pauli.T), axis=1).real for pauli in PAULI_BASIS])


def replay_weights(psi, seq, noise, rng, durations, g=1.0):
    """Weights of the trajectories starting at the rows of psi, replayed state by state at coupling g.

    The k-th Evolve step of a trajectory runs for durations[k] / g in the
    exchange eigenbasis.  A projection before the last draws rng.random(n)
    for its readout branch (the declared one below (1 + r)/2), multiplies
    the weight by the Born probability of that branch and collapses onto
    it, renormalized; the last one multiplies the weight by the probability
    of its declaration.  p_up is clipped to 1, where it may round past it.
    """
    psi = np.array(psi, dtype=complex)
    n = len(psi)
    weight = np.ones(n)
    energies, v = np.linalg.eigh(exchange_hamiltonian(g))
    correct_weight, _ = branch_weights(noise.r)
    evolves = iter(durations)
    *early, last = seq.steps
    for step in early:
        if isinstance(step, Evolve):
            psi = ((psi @ v.conj()) * np.exp(-1j * np.outer(np.asarray(next(evolves)) / g, energies))) @ v.T
        elif isinstance(step, Project):
            p_up = np.minimum(np.sum(np.abs(psi[:, :2]) ** 2, axis=1), 1.0)
            correct = rng.random(n) < correct_weight
            kept_up = correct if step.declared == UP else ~correct
            p_kept = np.where(kept_up, p_up, 1.0 - p_up)
            weight *= p_kept
            psi = np.where(kept_up[:, None], [1, 1, 0, 0], [0, 0, 1, 1]) * psi
            psi /= np.sqrt(np.maximum(p_kept, 1e-300))[:, None]
        else:
            psi = psi @ rotation_unitary(step).T
    p_up = np.minimum(np.sum(np.abs(psi[:, :2]) ** 2, axis=1), 1.0)
    sign = noise.r if last.declared == UP else -noise.r
    return weight * (0.5 * (1.0 - sign) + sign * p_up)


class _Branches:
    """Stands in for a Generator in replay_weights: the j-th random(n) call returns 0 for every
    trajectory, keeping the declared branch, if kept[j] is true, else 1, keeping the other one."""

    def __init__(self, kept):
        self._kept = iter(kept)

    def random(self, n):
        return np.full(n, 0.0 if next(self._kept) else 1.0)


def branch_summed_replay(psi, seq, noise, durations, g=1.0):
    """replay_weights averaged over the readout branches of the k projections before the last.

    Replays each of the 2^k branch patterns with uniforms that force it and weights it by
    (1 + r)/2 for each projection that keeps its declared branch and (1 - r)/2 for each that
    keeps the other one.
    """
    correct, error = branch_weights(noise.r)
    k = sum(isinstance(step, Project) for step in seq.steps[:-1])
    total = np.zeros(len(psi))
    for kept in itertools.product((True, False), repeat=k):
        probability = math.prod(correct if keep else error for keep in kept)
        total += probability * replay_weights(psi, seq, noise, _Branches(kept), durations, g)
    return total


def long_sequence_sequences():
    """The shipped sequences with the first one run as five Evolve steps and three projections.

    Identity pulses (4 * pi/2 = 2 pi) and a repeated projection leave its ideal
    effect, and so the design, as they were.  As one form it would hold
    (3 + 1) * 3^5 = 972 terms, so it makes a step group of the weight forms,
    whose effect each trajectory back-propagates through all eight steps.
    """
    sequences = list(design_sequences().sequences)
    full = Evolve(math.pi / 2)
    steps = sequences[0].steps
    sequences[0] = MeasureSequence(steps=(steps[0], full, full, Project(UP), Evolve(TRANSFER_TIME),
                                          full, full, steps[-1]))
    return sequences


def weight_coefficients(forms, r, bases):
    """A[i, s, f] at polarization r: the weight of a trajectory with features z (the layout of
    ``blockade.TrajectoryFeatures``) in sequence s of input i is A[i, s] @ z.

    Each form group's coefficients are evaluated at r first, by explicit powers, and the input's
    basis is folded in after; a step group computes its member's weights in its features, so each
    input's row there has a unit coefficient.
    """
    n_inputs, _, width = bases.shape
    blocks = []
    for group in forms.groups:
        if isinstance(group, _StepGroup):
            block = np.zeros((n_inputs, forms.n_sequences, n_inputs))
            block[range(n_inputs), group.members[0], range(n_inputs)] = 1.0
        else:
            at_r = sum(r**j * coeffs for j, coeffs in enumerate(group.coeffs))    # (monomial, 16, member)
            block = np.zeros((n_inputs, forms.n_sequences, at_r.shape[0] * width))
            for i, basis in enumerate(bases):
                for col, s in enumerate(group.members):
                    block[i, s] = (at_r[:, :, col] @ basis).ravel()              # c . (basis x) = (c basis) . x
        blocks.append(block)
    return np.concatenate(blocks, axis=-1)


def mean_trajectory_features(forms, noise, sequences):
    """E[z], the exact mean of the trajectory features of the forms of sequences, on the gate.

    A form group's feature is a monomial of the Evolve slots' cos 4 tau and sin 4 tau times one of
    the seven gate coordinates, and the slots and the two gate pulses are drawn independently.  For
    a slot of mean time t, tau ~ Normal(t, sigma) gives E[cos 4 tau] = cos(4 t) exp(-8 sigma^2) and
    the same for sin.  The pulse phases a_k = 4 s_k ~ Normal(3 pi / 2, 2 sigma) give the
    coordinates' mean (1, 0, -d, 0, -d, d^2, 0), d = exp(-2 sigma^2).  sigma is
    noise.sampled_gdtau.  A step group's row for input i is that input's weight, linear in the
    gate and in each of its steps' independent draws: its mean is the success probability of the
    averaged gate's output through the sequence's averaged steps.
    """
    sigma = noise.sampled_gdtau
    d = math.exp(-2.0 * sigma**2)
    gate = np.array([1.0, 0.0, -d, 0.0, -d, d * d, 0.0])
    channel = noisy_cnot_channel(noise)
    means = []
    for group in forms.groups:
        if isinstance(group, _StepGroup):
            seq = sequences[group.members[0]]
            means.append([forward_sequence_probability(seq, apply_channel(channel, rho), noise)
                          for rho in qpt_input_states().values()])
            continue
        for monomial in group.monomials:
            value = 1.0
            for slot, kind in monomial:
                phase = 4.0 * forms.slot_times[slot]
                value *= math.exp(-8.0 * sigma**2) * (math.cos(phase) if kind == 1 else math.sin(phase))
            means.append(value * gate)
    return np.concatenate(means)


# A trigonometric series over v variables is a complex coefficient array whose last v axes run over
# the frequencies -K..K of each variable, the middle index frequency 0.  1, cos x and sin x of one
# variable, over the frequencies -1, 0, 1:
_ONE = np.array([0.0, 1.0, 0.0], dtype=complex)
_COS = np.array([0.5, 0.0, 0.5], dtype=complex)           # (e^{-ix} + e^{ix}) / 2
_SIN = np.array([0.5j, 0.0, -0.5j], dtype=complex)        # (e^{ix} - e^{-ix}) / 2i


def series_product(f, g, nvars):
    """The product of two series over nvars variables: the convolution of their last nvars axes,
    the leading axes broadcast."""
    f_box, g_box = f.shape[f.ndim - nvars:], g.shape[g.ndim - nvars:]
    batch = np.broadcast_shapes(f.shape[:f.ndim - nvars], g.shape[:g.ndim - nvars])
    out = np.zeros(batch + tuple(a + b - 1 for a, b in zip(f_box, g_box)), dtype=complex)
    for index in np.ndindex(*g_box):
        window = tuple(slice(i, i + n) for i, n in zip(index, f_box))
        out[(Ellipsis, *window)] += f * g[(Ellipsis, *index)].reshape(g.shape[:g.ndim - nvars] + (1,) * nvars)
    return out


def gaussian_mean(series, means, widths):
    """E[series] for independent variables x_j ~ Normal(means[j], widths[j]), one per trailing axis:
    each term c_k e^{i k.x} has the mean c_k e^{i k.mu - sum_j k_j^2 widths_j^2 / 2}."""
    weights = np.ones((), dtype=complex)
    for size, mean, width in zip(series.shape[series.ndim - len(means):], means, widths):
        k = np.arange(size) - size // 2
        weights = np.multiply.outer(weights, np.exp(1j * k * mean - 0.5 * (k * width) ** 2))
    return np.tensordot(series, weights, axes=len(means))


def feature_variables(forms, noise):
    """(means, widths) of the variables the trajectory features are series in: the phase 4 tau of
    each Evolve slot, tau ~ Normal(slot time, sigma), then a1 and a2, a_k = 4 s_k with the pulse
    duration s_k ~ Normal(CNOT_PHASE_TIME / 2, sigma / 2); sigma is noise.sampled_gdtau."""
    sigma = noise.sampled_gdtau
    means = [4.0 * time for time in forms.slot_times] + [2.0 * CNOT_PHASE_TIME] * 2
    return means, [4.0 * sigma] * len(forms.slot_times) + [2.0 * sigma] * 2


def _monomial_series(forms):
    """The duration monomials of forms without a step group, group by group, as series over the
    slot phases: a monomial holds at most one factor cos or sin per slot, so each is an outer product."""
    rows = []
    for group in forms.groups:
        if isinstance(group, _StepGroup):
            raise ValueError("a step group's features are not linear in the duration monomials")
        for monomial in group.monomials:
            factors = [_ONE] * len(forms.slot_times)
            for slot, kind in monomial:
                factors[slot] = _COS if kind == 1 else _SIN
            rows.append(functools.reduce(np.multiply.outer, factors, np.ones((), dtype=complex)))
    return np.array(rows)


def _gate_coordinate_series():
    """The seven gate coordinates 1, cos a1, sin a1, cos a2, sin a2, cos(a1 - a2), sin(a1 - a2)
    as series over (a1, a2), shape (7, 3, 3)."""
    difference = np.zeros((2, 3, 3), dtype=complex)          # cos and sin of a1 - a2
    difference[:, 2, 0] = 0.5, -0.5j                # at e^{i(a1 - a2)}: a1 at frequency 1, a2 at -1
    difference[:, 0, 2] = 0.5, 0.5j                 # at e^{-i(a1 - a2)}
    single = [np.multiply.outer(_ONE, _ONE), np.multiply.outer(_COS, _ONE), np.multiply.outer(_SIN, _ONE),
              np.multiply.outer(_ONE, _COS), np.multiply.outer(_ONE, _SIN)]
    return np.concatenate([single, difference])


def trajectory_feature_series(forms):
    """The trajectory features z of forms without a step group on the gate bases, as series over
    the variables of :func:`feature_variables`: a duration monomial times a gate coordinate,
    monomial-major, so z = monomials (x) coordinates.  Shape (n_features, 3, ..., 3)."""
    return np.concatenate([[np.multiply.outer(m, c) for c in _gate_coordinate_series()]
                           for m in _monomial_series(forms)])


def trajectory_feature_covariance(forms, noise):
    """Cov z, the exact covariance of one trajectory's features for forms without a step group.

    The durations and the gate pulses are drawn independently, so with z = m (x) c, monomials m
    and gate coordinates c, E[z z^T] = E[m m^T] (x) E[c c^T] and E[z] = E[m] (x) E[c].  Each
    product of two series is a finite series, whose mean :func:`gaussian_mean` gives exactly.
    """
    means, widths = feature_variables(forms, noise)
    k = len(forms.slot_times)

    def moments(series, nvars, var_means, var_widths):
        second = series_product(series[:, None], series[None], nvars)
        return (gaussian_mean(series, var_means, var_widths).real,
                gaussian_mean(second, var_means, var_widths).real)

    m_mean, m_second = moments(_monomial_series(forms), k, means[:k], widths[:k])
    c_mean, c_second = moments(_gate_coordinate_series(), 2, means[k:], widths[k:])
    mean = np.kron(m_mean, c_mean)
    return np.kron(m_second, c_second) - np.outer(mean, mean)


def quadratic_form_moments(forms, noise, weights):
    """E[Q] and E[Q^2] of Q = sum_k |(z - E z) @ weights[:, j, k]|^2 for each j, z the trajectory
    features of forms without a step group and weights complex, shape (n_features, J, K).

    Each y = z @ w is a series, and so are its deviation x = y - E y, |x|^2 = x conj(x) (conj(x)
    has the conjugate coefficients at the negated frequencies) and Q^2: four factors of the
    features, whose means are exact.  E[Q] is w^H Cov z w summed over k.
    """
    means, widths = feature_variables(forms, noise)
    nvars = len(means)
    deviations = np.tensordot(np.moveaxis(weights, 0, -1), trajectory_feature_series(forms), axes=1)
    center = (Ellipsis,) + (1,) * nvars
    deviations[center] -= gaussian_mean(deviations, means, widths)
    flipped = deviations.conj()[(Ellipsis,) + (slice(None, None, -1),) * nvars]
    squares = series_product(deviations, flipped, nvars).sum(axis=1)
    return (gaussian_mean(squares, means, widths).real,
            gaussian_mean(series_product(squares, squares, nvars), means, widths).real)


def ideal_effect_operator(seq):
    """Hermitian effect E with Tr[E rho] = success probability at r = 1, gdtau = 0: the value of
    effect_polynomial at r = D = 1, exactly Hermitian as each coefficient is; 0 <= E <= 1."""
    return effect_polynomial(seq).sum(axis=(0, 1))


def identity_channel():
    """The identity channel on 4x4 operators."""
    return QuantumChannel.from_unitary(np.eye(4, dtype=complex))


def exchange_coherence(mean_time):
    """rho -> q P_S rho P_T + conj(q) P_T rho P_S, q = exp(4i mean_time): the singlet-triplet
    coherences of an exchange pulse of mean duration mean_time (units of 1/g), as a superoperator,
    cos 4 mean_time times EXCHANGE_PARTS[1] plus sin 4 mean_time times EXCHANGE_PARTS[2]."""
    phase = 4.0 * mean_time
    return math.cos(phase) * EXCHANGE_PARTS[1] + math.sin(phase) * EXCHANGE_PARTS[2]


def split_cnot_channel(noise, g=1.0):
    """Averaged CNOT at coupling g from the sum and difference of its two pulse durations.

    The isolation pulses s1, s2 fluctuate independently with dispersion
    delta_tau/2 each, delta_tau = noise.gdtau / g, so their sum and difference
    are independent Gaussians of dispersion delta_tau/sqrt(2).  The sum
    dephases the sz sz exponent about CNOT_PHASE_TIME/g; the difference, of
    mean 0, reintroduces a flip-flop admixture, which populates the
    spin-transfer sector.
    """
    sigma = noise.gdtau / g / math.sqrt(2.0)
    phase_part = gaussian_averaged_channel(zz_hamiltonian(g), CNOT_PHASE_TIME / g, sigma)
    leak_part = gaussian_averaged_channel(flipflop_hamiltonian(g), 0.0, sigma)
    entry, frame = QuantumChannel.from_unitary(CNOT_ENTRY), QuantumChannel.from_unitary(CNOT_FRAME)
    return compose(frame, phase_part, leak_part, entry)


def compose(*channels):
    """The channel applying the last of two or more channels first and the first one last."""
    return QuantumChannel(superop=np.linalg.multi_dot([channel.superop for channel in channels]))


def forward_output_negativity(r, gdtau, design):
    """Negativity of the reconstructed gate output, rebuilt from scratch at r."""
    noise = NoiseParams(r=r, gdtau=gdtau)
    rho_out = apply_channel(noisy_cnot_channel(noise), ENTANGLEMENT_INPUT)
    probs = [forward_sequence_probability(seq, rho_out, noise) for seq in design.sequences]
    return negativity(hermitize(forward_reconstruct(probs, design)))


def forward_threshold(design, gdtau, tol=1e-4, sweep_steps=64, eps=1e-10):
    """(r_star, bracket_history, curve) of the sweep-then-bisect threshold search."""
    grid = np.linspace(0.0, 1.0, sweep_steps + 1)
    values = [forward_output_negativity(r, gdtau, design) for r in grid]
    curve = tuple((float(r), float(v)) for r, v in zip(grid, values))
    first = next(i for i, v in enumerate(values) if v > eps)
    lo, hi = float(grid[first - 1]), float(grid[first])
    history = [(lo, hi)]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if forward_output_negativity(mid, gdtau, design) > eps:
            hi = mid
        else:
            lo = mid
        history.append((lo, hi))
    return hi, tuple(history), curve


def _exact_product(f, g):
    """The product of two polynomials whose coefficients are complex (real, imaginary) Fraction pairs."""
    out = [(Fraction(0), Fraction(0))] * (len(f) + len(g) - 1)
    for i, (a, b) in enumerate(f):
        for j, (c, d) in enumerate(g):
            re, im = out[i + j]
            out[i + j] = (re + a * c - b * d, im + a * d + b * c)
    return out


def exact_characteristic_coefficients(poly):
    """e_1 ... e_4 of the Hermitian polynomial poly(r), shape (k+1, 4, 4), in exact arithmetic: its
    float coefficients taken as exact, each principal j x j minor of poly(r) expanded as Leibniz's
    sum over the permutations of its rows, and complex values held as (real, imaginary) pairs of
    Fractions.  e_j is the list of its jk+1 coefficients from r^0 up, as Fractions; a minor of an
    exactly Hermitian matrix is real, and that is checked.  The reference for the rounding bounds of
    ``qcore._characteristic_coefficients``, with which it shares no code."""
    size = poly.shape[1]
    entries = [[[(Fraction(float(c.real)), Fraction(float(c.imag))) for c in poly[:, a, b]]
                for b in range(size)] for a in range(size)]
    result = []
    for j in range(1, size + 1):
        total = [(Fraction(0), Fraction(0))] * (j * (len(poly) - 1) + 1)
        for rows in itertools.combinations(range(size), j):
            for cols in itertools.permutations(rows):
                term = [(Fraction(1), Fraction(0))]
                for a, b in zip(rows, cols):
                    term = _exact_product(term, entries[a][b])
                inversions = sum(x > y for x, y in itertools.combinations(cols, 2))
                sign = -1 if inversions % 2 else 1
                total = [(re + sign * tre, im + sign * tim) for (re, im), (tre, tim) in zip(total, term)]
        assert all(im == 0 for _, im in total)
        result.append([re for re, _ in total])
    return result


def exact_polynomial_value(coefficients, r):
    """The exact value at the float r of a polynomial whose coefficients, from r^0 up, are Fractions."""
    x, value = Fraction(r), Fraction(0)
    for c in reversed(coefficients):
        value = value * x + c
    return value


def ideal_check_deviations(seed, samples, inject):
    """The ``checks`` and ``max_deviation`` of an ``ideal-check`` report, one sample at a time."""
    rng = np.random.default_rng(seed)
    g = 1.0
    built = cnot_unitary(g)
    if inject:
        # Rz_X commutes with H_A, so this perturbs the frame's Rz_X(pi/2) angle.
        built = local_rotation("X", "z", 1e-3) @ built
    cnot_dev = abs(1.0 - abs(np.trace(built.conj().T @ CNOT_TARGET)) / 4.0)
    iso_devs = []
    for _ in range(samples):
        t = rng.uniform(0.05, 2.0 * math.pi) / g
        v = term_isolation_unitary(g, t)
        w = evolve_unitary(zz_hamiltonian(g), t)
        iso_devs.append(abs(1.0 - abs(np.trace(v.conj().T @ w)) / 4.0))
    checks = [
        {"name": "cnot_synthesis_vs_target", "deviation": float(cnot_dev)},
        {
            "name": "term_isolation_identity",
            "max_deviation": float(max(iso_devs)),
            "samples": samples,
        },
    ]
    return checks, float(max(cnot_dev, max(iso_devs)))
