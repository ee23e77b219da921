"""The backend-equivalence matrix: one script, three transports, one answer.

This is the acceptance test of the unified client layer: the *same*
sequence of typed calls runs against a ``local:`` backend, a live HTTP
endpoint, and a ``cluster:`` deployment over the same plan directory, and
must produce

* bit-identical float64 predictions (deterministic and ensemble), and
* the identical typed error (class and machine-readable code) for the
  same malformed inputs,

through every backend.  The Fig. 6 sigma sweep helper is part of the
script, so the study protocol itself is certified backend-independent.
"""

from __future__ import annotations

import numpy as np
import pytest
from types import SimpleNamespace

from repro.api import connect
from repro.api.errors import ApiError
from repro.api.study import variation_sweep_via_client
from repro.api.types import EnsembleRequest, PredictRequest
from repro.models import make_mlp
from repro.runtime import compile_model
from repro.serve import InferenceService, PlanRegistry, PlanServer

MODELS = (("alpha", 4, "acm"), ("beta", None, "de"))
#: "cluster-shm" is the same sharded backend with ``shm_threshold=0``:
#: every request/response array is forced over the shared-memory
#: transport, so its bit-identity with the pipe-based "cluster" (and with
#: everything else) is enforced by every test in this module.
BACKENDS = ("local", "http", "cluster", "cluster-shm")


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    """One plan directory, four live backends, shared evaluation data."""
    directory = tmp_path_factory.mktemp("equivalence-plans")
    registry = PlanRegistry(directory)
    plans = {}
    for seed, (name, bits, mapping) in enumerate(MODELS):
        model = make_mlp(input_size=16, hidden_sizes=(8,), mapping=mapping,
                         quantizer_bits=bits, seed=seed)
        registry.publish_model(model, name, bits, mapping)
        plans[name] = compile_model(model)

    http_service = InferenceService(PlanRegistry(directory), max_batch=16)
    server = PlanServer(http_service, own_backend=True).start()
    clients = {
        "local": connect(f"local:{directory}?max_batch=16&max_wait_ms=2"),
        "http": connect(server.url),
        "cluster": connect(
            f"cluster:{directory}?workers=2&max_batch=16&shm_threshold=off"
        ),
        "cluster-shm": connect(
            f"cluster:{directory}?workers=2&max_batch=16&shm_threshold=0"
        ),
    }
    clients["cluster"].backend.wait_ready(timeout=120)
    clients["cluster-shm"].backend.wait_ready(timeout=120)
    rng = np.random.default_rng(11)
    images = rng.normal(size=(8, 16))
    labels = rng.integers(0, 10, size=8)
    yield SimpleNamespace(directory=directory, plans=plans, clients=clients,
                          images=images, labels=labels, server=server)
    shm_base = clients["cluster-shm"].backend._shm_base
    for client in clients.values():
        client.close()
    server.close()
    # The shm-forced cluster may not leave a single orphaned segment.
    from repro.serve.shm import list_segments

    assert list_segments(shm_base) == []


def run_script(client, images, labels):
    """The one client script; must behave identically on every backend."""
    out = {}
    for name, bits, mapping in MODELS:
        out[f"predict:{name}"] = client.predict(PredictRequest(
            images=images, model=name, mapping=mapping, bits=bits)).logits
        out[f"single:{name}"] = client.predict(PredictRequest(
            images=images[0], model=name, mapping=mapping, bits=bits)).logits
        ensemble = client.ensemble(EnsembleRequest(
            images=images, model=name, mapping=mapping, bits=bits,
            sigma_fraction=0.15, num_samples=7, seed=21))
        out[f"ensemble_mean:{name}"] = ensemble.mean_logits
        out[f"ensemble_votes:{name}"] = ensemble.vote_counts
        out[f"ensemble_pred:{name}"] = ensemble.predictions
    sweep = variation_sweep_via_client(
        client, images, labels, model="alpha", mapping="acm", bits=4,
        sigmas=(0.0, 0.2), num_samples=5, seed=3,
    )
    out["sweep_accuracy"] = np.asarray(sweep.accuracies)
    out["sweep_confidence"] = np.asarray(
        [point.mean_confidence for point in sweep.points]
    )
    return out


class TestBitEquivalence:
    def test_same_script_identical_through_every_backend(self, matrix):
        results = {
            backend: run_script(matrix.clients[backend], matrix.images,
                                matrix.labels)
            for backend in BACKENDS
        }
        reference = results["local"]
        # The local backend itself must match the bare compiled plan.
        for name, _, _ in MODELS:
            np.testing.assert_array_equal(
                reference[f"predict:{name}"],
                matrix.plans[name].run(matrix.images),
            )
        for backend in BACKENDS[1:]:
            for key, expected in reference.items():
                actual = results[backend][key]
                assert np.asarray(actual).dtype == np.asarray(expected).dtype, \
                    f"{backend}:{key} dtype drifted"
                np.testing.assert_array_equal(
                    actual, expected,
                    err_msg=f"{backend}:{key} is not bit-identical",
                )

    def test_same_study_spec_identical_through_every_backend(self, matrix):
        """The async study path: one spec, four backends, identical bits.

        Submits the *same* multi-model :class:`StudySpec` through
        ``submit_study`` on every backend — the local in-process manager,
        the HTTP server's manager, and both cluster transports — and the
        collected :class:`StudyResult` cells must agree to the last bit,
        accuracy scoring included.
        """
        from repro.api import study_spec, wait_study

        spec = study_spec(
            images=matrix.images,
            models=[(name, mapping, bits) for name, bits, mapping in MODELS],
            sigmas=(0.0, 0.1),
            num_samples=5,
            seed=13,
            labels=matrix.labels,
        )
        results = {}
        for backend in BACKENDS:
            client = matrix.clients[backend]
            job_id = client.submit_study(spec)
            results[backend] = wait_study(client, job_id, timeout=300.0)
        reference = results["local"]
        assert len(reference.cells) == spec.cell_count
        for backend in BACKENDS[1:]:
            result = results[backend]
            assert len(result.cells) == len(reference.cells), backend
            for cell, expected in zip(result.cells, reference.cells):
                assert (cell.model, cell.bits, cell.mapping,
                        cell.sigma_fraction) == (
                    expected.model, expected.bits, expected.mapping,
                    expected.sigma_fraction), backend
                np.testing.assert_array_equal(
                    cell.mean_logits, expected.mean_logits,
                    err_msg=f"{backend}: mean_logits not bit-identical")
                np.testing.assert_array_equal(
                    cell.predictions, expected.predictions,
                    err_msg=f"{backend}: predictions not bit-identical")
                np.testing.assert_array_equal(
                    cell.confidence, expected.confidence,
                    err_msg=f"{backend}: confidence not bit-identical")
                assert cell.accuracy == expected.accuracy, backend

    def test_float64_is_preserved_end_to_end(self, matrix):
        for backend in BACKENDS:
            logits = matrix.clients[backend].predict(PredictRequest(
                images=matrix.images, model="alpha", mapping="acm",
                bits=4)).logits
            assert np.asarray(logits).dtype == np.float64

    def test_catalogues_agree(self, matrix):
        listings = {
            backend: {info.name: info.digest
                      for info in matrix.clients[backend].models()}
            for backend in BACKENDS
        }
        for backend in BACKENDS[1:]:
            assert listings["local"] == listings[backend], backend
        assert set(listings["local"]) == {"alpha__4b__acm", "beta__fp32__de"}

    def test_health_everywhere(self, matrix):
        for backend in BACKENDS:
            health = matrix.clients[backend].health()
            assert health.ok and health.models == len(MODELS)


def _typed_failure(client, request, flavour):
    call = client.ensemble if flavour == "ensemble" else client.predict
    try:
        call(request)
    except ApiError as error:
        return type(error), error.code
    raise AssertionError("expected a typed ApiError")


class TestErrorEquivalence:
    CASES = [
        ("unknown model", "predict", dict(model="ghost", mapping="acm")),
        ("unknown ensemble model", "ensemble", dict(model="ghost",
                                                    mapping="acm")),
        ("wrong geometry", "predict", dict(model="alpha", mapping="acm",
                                           bits=4, shape=(2, 3))),
        ("wrong ensemble geometry", "ensemble", dict(model="alpha",
                                                     mapping="acm", bits=4,
                                                     shape=(1, 2, 3))),
        ("wrong mapping key", "predict", dict(model="alpha", mapping="bc",
                                              bits=4)),
    ]

    @pytest.mark.parametrize("label,flavour,spec",
                             CASES, ids=[case[0] for case in CASES])
    def test_same_typed_error_through_every_backend(self, matrix, label,
                                                    flavour, spec):
        shape = spec.pop("shape", (2, 16))
        images = np.zeros(shape)
        outcomes = {}
        for backend in BACKENDS:
            if flavour == "ensemble":
                request = EnsembleRequest(images=images, num_samples=3, **spec)
            else:
                request = PredictRequest(images=images, **spec)
            outcomes[backend] = _typed_failure(matrix.clients[backend],
                                               request, flavour)
        assert all(outcomes[backend] == outcomes["local"]
                   for backend in BACKENDS), f"{label}: {outcomes}"
        spec["shape"] = shape  # restore for parametrize reuse safety

    def test_construction_time_validation_is_backend_free(self, matrix):
        # Bad ensemble parameters never reach a transport: the shared
        # request type rejects them identically for every backend.
        from repro.api import InvalidRequest

        for _ in BACKENDS:
            with pytest.raises(InvalidRequest):
                EnsembleRequest(images=np.zeros((1, 16)), model="alpha",
                                mapping="acm", bits=4, num_samples=0)


class TestIntegerPrecisionEquivalence:
    """The same matrix served through the integer execution path.

    Every backend accepts ``precision=int8`` (query parameter for
    ``local:``/``cluster:``, service constructor for HTTP); on grid-aligned
    inputs the int8-served answers must agree with the float64 reference
    plan in argmax bit-for-bit and in logits to 1e-6, and all int8 backends
    must be bit-identical to *each other* — quantisation is deterministic,
    so the transport may not introduce a single ulp of drift.
    """

    @pytest.fixture(scope="class")
    def int8_matrix(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("int8-equivalence-plans")
        registry = PlanRegistry(directory)
        plans = {}
        for seed, (name, bits, mapping) in enumerate(MODELS):
            model = make_mlp(input_size=16, hidden_sizes=(8,), mapping=mapping,
                             quantizer_bits=bits, seed=seed)
            registry.publish_model(model, name, bits, mapping)
            plans[name] = compile_model(model)

        http_service = InferenceService(PlanRegistry(directory), max_batch=16,
                                        precision="int8")
        server = PlanServer(http_service, own_backend=True).start()
        clients = {
            "local": connect(f"local:{directory}?max_batch=16&precision=int8"),
            "http": connect(server.url),
            "cluster": connect(
                f"cluster:{directory}?workers=2&max_batch=16"
                f"&shm_threshold=off&precision=int8"
            ),
            "cluster-shm": connect(
                f"cluster:{directory}?workers=2&max_batch=16"
                f"&shm_threshold=0&precision=int8"
            ),
        }
        clients["cluster"].backend.wait_ready(timeout=120)
        clients["cluster-shm"].backend.wait_ready(timeout=120)
        # Dyadic-grid images (k / 64): losslessly int8-quantisable, so the
        # integer kernels genuinely run instead of falling back to float.
        rng = np.random.default_rng(23)
        images = rng.integers(-64, 65, size=(8, 16)) / 64.0
        yield SimpleNamespace(plans=plans, clients=clients, images=images)
        for client in clients.values():
            client.close()
        server.close()

    def _predict(self, client, name, bits, mapping, images):
        return np.asarray(client.predict(PredictRequest(
            images=images, model=name, mapping=mapping, bits=bits)).logits)

    def test_int8_agrees_with_float64_reference(self, int8_matrix):
        for backend, client in int8_matrix.clients.items():
            for name, bits, mapping in MODELS:
                logits = self._predict(client, name, bits, mapping,
                                       int8_matrix.images)
                expected = int8_matrix.plans[name].run(int8_matrix.images)
                np.testing.assert_array_equal(
                    logits.argmax(axis=1), expected.argmax(axis=1),
                    err_msg=f"{backend}:{name} argmax drifted under int8",
                )
                np.testing.assert_allclose(
                    logits, expected, atol=1e-6, rtol=0,
                    err_msg=f"{backend}:{name} int8 logits off the float64 path",
                )

    def test_int8_backends_bit_identical_to_each_other(self, int8_matrix):
        reference = {
            name: self._predict(int8_matrix.clients["local"], name, bits,
                                mapping, int8_matrix.images)
            for name, bits, mapping in MODELS
        }
        for backend in BACKENDS[1:]:
            client = int8_matrix.clients[backend]
            for name, bits, mapping in MODELS:
                np.testing.assert_array_equal(
                    self._predict(client, name, bits, mapping,
                                  int8_matrix.images),
                    reference[name],
                    err_msg=f"{backend}:{name} not bit-identical under int8",
                )

    def test_catalogue_and_health_unchanged_by_precision(self, int8_matrix):
        listings = {
            backend: {info.name: info.digest for info in client.models()}
            for backend, client in int8_matrix.clients.items()
        }
        for backend in BACKENDS[1:]:
            assert listings["local"] == listings[backend], backend
        assert set(listings["local"]) == {"alpha__4b__acm", "beta__fp32__de"}
        for backend, client in int8_matrix.clients.items():
            health = client.health()
            assert health.ok and health.models == len(MODELS), backend

    def test_integer_path_actually_engaged(self, int8_matrix):
        # The quantised 4-bit model must report integer-lowered ops and at
        # least one batch through the integer kernels; the unquantised
        # model legitimately keeps the float path.
        stats = int8_matrix.clients["local"].stats()
        block = stats["alpha__4b__acm"]["precision"]
        assert block["precision"] == "int8"
        assert block["int_ops"] > 0 and block["int_batches"] >= 1
        assert stats["beta__fp32__de"]["precision"]["int_ops"] == 0


class TestEnsembleBackpressureEquivalence:
    """A saturated ensemble lane 429s identically through every backend."""

    @pytest.fixture(scope="class")
    def saturated(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("ebp-equivalence-plans")
        registry = PlanRegistry(directory)
        model = make_mlp(input_size=16, hidden_sizes=(6,), mapping="acm",
                         quantizer_bits=4, seed=0)
        registry.publish_model(model, "alpha", 4, "acm")
        service = InferenceService(PlanRegistry(directory),
                                   max_concurrent_ensembles=0)
        server = PlanServer(service, own_backend=True).start()
        clients = {
            "local": connect(
                f"local:{directory}?max_concurrent_ensembles=0"
            ),
            "http": connect(server.url),
            "cluster": connect(
                f"cluster:{directory}?workers=1&max_concurrent_ensembles=0"
            ),
        }
        clients["cluster"].backend.wait_ready(timeout=120)
        yield clients
        for client in clients.values():
            client.close()
        server.close()

    def test_saturated_lane_rejects_identically(self, saturated):
        from repro.api import ApiBackpressure

        outcomes = {}
        for backend, client in saturated.items():
            request = EnsembleRequest(images=np.zeros((2, 16)), model="alpha",
                                      mapping="acm", bits=4, num_samples=3)
            with pytest.raises(ApiBackpressure) as excinfo:
                client.ensemble(request)
            assert excinfo.value.retry_after > 0, backend
            outcomes[backend] = (type(excinfo.value), excinfo.value.code)
        assert len(set(outcomes.values())) == 1, outcomes

    def test_deterministic_requests_unaffected_everywhere(self, saturated):
        for backend, client in saturated.items():
            logits = client.predict(PredictRequest(
                images=np.zeros((2, 16)), model="alpha", mapping="acm",
                bits=4)).logits
            assert np.asarray(logits).shape == (2, 10), backend
