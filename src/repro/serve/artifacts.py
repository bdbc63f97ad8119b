"""The artifact store: save/load a fitted SEM -> NPRec pipeline.

An artifact is a directory::

    manifest.json            schema version, checksums, counts, metadata
    config.json              NPRecConfig + SEMConfig + model architecture
    graph.json               heterogeneous network (indices + adjacency order)
    papers.json              training papers + author affiliations
    vocabulary.npz           the one TF-IDF vocabulary: its terms in id
                             order and their idf (content block, profile
                             text and serving's fallback all read it)
    sem/encoder.json|.npz    frozen sentence-encoder statistics + rotation
    sem/network.npz          subspace fusion network (nn.serialization)
    sem/rules.npz            expert-rule fusion weights + normalisation
    sem/labeler.npz          CRF sentence tagger (only when trained)
    model/weights.npz        NPRecModel parameters (state_dict)
    model/static.npz         text + mask matrices, content block as CSR
                             (content_data / content_indices / content_indptr)
    model/neighbours.npz     the interest and influence neighbour tables
    profile_text/meta.json|weights.npz
                             JTIE profile-text module (only when trained)
    ann/ivf.npz|.json        IVF coarse quantizer over a serving pool
                             (only when saved via save_ann_index)
    pool/pool.json           serving-pool snapshot in insertion order
                             (only after a WAL compaction; see
                             save_compacted)

Everything that decides a ranking is persisted **exactly** — float64
arrays through ``.npz``, graph adjacency in insertion order, the
neighbour tables and the seed that draws rows for ingested entities, and
the TF-IDF vocabulary that embeds ingested papers and profile text — so
a reloaded recommender reproduces ``rank()`` bit for bit, and loading
draws and refits nothing.

``manifest.json`` carries a SHA-256 per file and a schema version (6
since the neighbour tables are stored; see ``SCHEMA_VERSION``);
:func:`load_pipeline` refuses loudly
(``ArtifactError`` / ``SchemaVersionError``) rather than deserialising
a corrupt or foreign-versioned directory.

Every write is one staged snapshot (:mod:`repro.resilience.staging`),
so a crash leaves the old artifact or the new one, never a mix.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from collections import Counter
from pathlib import Path

import numpy as np

from repro import obs
from repro.baselines.content import TfIdfIndex
from repro.baselines.neural import JTIERecommender
from repro.core.nprec.model import ContentRows, NPRecModel
from repro.core.nprec.recommend import NPRecConfig, NPRecRecommender
from repro.core.rules import ExpertRuleSet
from repro.core.sem import SEMConfig, SubspaceEmbeddingMethod
from repro.core.subspace_model import SubspaceEmbeddingNetwork
from repro.data.corpus import Corpus
from repro.data.io import paper_from_dict, paper_to_dict
from repro.errors import ArtifactError, InjectedFault, NotFittedError
from repro.graph.hetero import HeterogeneousGraph
from repro.nn.layers import Linear
from repro.nn.serialization import load_module
from repro.resilience import faults, staging
from repro.resilience.retry import Backoff, retry
from repro.text.sentence_encoder import SentenceEncoder
from repro.text.sequence_labeler import SequenceLabeler

#: Version of the on-disk layout. Bump on any incompatible change; load
#: refuses mismatched versions with :class:`SchemaVersionError`.
#: v2: manifests may cover an optional ``ann/`` quantizer directory and
#: carry its pool fingerprint — v1 artifacts must be re-saved (they
#: were only ever produced by ephemeral warmup runs, never shipped).
#: v3: the content block is stored as CSR arrays, so v2 artifacts must be re-saved.
#: v4: the never-enabled novelty-score payload and its config weight are
#: gone, so v3 artifacts must be re-saved.
#: v5: the TF-IDF vocabulary is stored (``vocabulary.npz``) instead of
#: refitted at load, so v4 artifacts must be re-saved.
#: v6: the neighbour tables (``model/neighbours.npz``) replace the lazily
#: sampled fields and their sampler state, so v5 artifacts must be re-saved.
SCHEMA_VERSION = 6

KIND = "nprec-pipeline"
POOL_FILE = "pool/pool.json"


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _load_npz(path: Path) -> dict[str, np.ndarray]:
    with np.load(path) as archive:
        return {name: archive[name] for name in archive.files}


# ----------------------------------------------------------------------
# Save
# ----------------------------------------------------------------------
def save_pipeline(recommender: NPRecRecommender, directory: str | os.PathLike,
                  corpus: Corpus | None = None,
                  extra_metadata: dict | None = None,
                  author_affiliations: dict[str, str] | None = None) -> Path:
    """Persist a fitted :class:`NPRecRecommender` to *directory*.

    Parameters
    ----------
    recommender:
        A fitted recommender (``fit`` must have been called).
    directory:
        Target directory; created if absent. An existing artifact there
        is replaced as a whole, atomically
        (:func:`repro.resilience.staging.write_snapshot`), except for its
        pool snapshot (``pool/pool.json``), which is carried over: after
        a compaction it is the only copy of the ingested papers.
    corpus:
        Optional source corpus — only used to harvest the
        ``author id -> affiliation`` map so incrementally ingested papers
        keep affiliation edges for known authors.
    extra_metadata:
        Free-form JSON-serialisable dict stored in the manifest (e.g.
        the CLI records corpus scale/seed here).
    author_affiliations:
        Pre-harvested ``author id -> affiliation`` map for callers with
        no corpus at hand. *corpus*-harvested entries win on overlap.

    Returns
    -------
    The artifact directory as a :class:`~pathlib.Path`.

    Raises
    ------
    NotFittedError
        If the recommender has not been fitted.
    ArtifactError
        If *directory* is neither empty nor an artifact.
    """
    root = Path(directory)
    payloads = _pipeline_payloads(recommender, corpus, author_affiliations)
    try:  # carry the pool snapshot, the only copy of compacted ingests
        pool = {POOL_FILE: staging.read_manifest(root)["files"][POOL_FILE]}
    except (ArtifactError, KeyError):
        pool = {}
    manifest = {**_pipeline_manifest(recommender, extra_metadata),
                "files": pool}
    with obs.trace("serve.save_pipeline", directory=str(root)):
        staging.write_snapshot(root, payloads, manifest, carry_from=root)
        obs.count("serve.artifact.saved")
    return root


def save_compacted(directory: str | os.PathLike,
                   recommender: NPRecRecommender | None, papers,
                   source: str | os.PathLike,
                   author_affiliations: dict[str, str], ivf=None) -> Path:
    """Write a serving index's state as one artifact snapshot
    (:meth:`repro.serve.index.ServingIndex.compact`).

    It holds ``pool/pool.json`` (*papers* in insertion order, which
    decides IVF positions and tie-breaking) and either the re-saved
    *recommender* under *source*'s ``extra`` metadata plus the quantizer
    *ivf*, or, for a degraded index, *source*'s files carried under
    their old checksums, so payloads that failed verification still
    fail it. A model-less index with no source manifest writes a
    ``serving-pool`` snapshot, which :func:`load_pipeline` refuses.
    """
    root = Path(directory)
    payloads = {POOL_FILE: staging.json_payload(
        {"papers": [paper_to_dict(p) for p in papers]})}
    carry_from = None
    if recommender is not None:
        payloads.update(_pipeline_payloads(recommender, None,
                                           author_affiliations))
        if ivf is not None:
            payloads.update(_ann_payloads(ivf, [p.id for p in papers]))
        manifest = _pipeline_manifest(recommender, manifest_extra(source))
    else:
        staging.recover(source)
        if (Path(source) / staging.MANIFEST_NAME).is_file():
            manifest, carry_from = staging.read_manifest(source), source
        else:  # nothing to carry, and no pipeline to vouch for
            manifest = {"schema_version": SCHEMA_VERSION,
                        "kind": "serving-pool"}
    with obs.trace("serve.save_compacted", directory=str(root)):
        staging.write_snapshot(root, payloads, manifest, carry_from)
        obs.count("serve.artifact.pool_saved")
    return root


def _pipeline_manifest(rec: NPRecRecommender,
                       extra_metadata: dict | None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": KIND,
        "counts": {
            "entities": rec.model.graph.num_entities,
            "edges": rec.model.graph.num_edges,
            "train_papers": len(rec._train_by_id),
        },
        "extra": extra_metadata or {},
    }


def _pipeline_payloads(rec: NPRecRecommender, corpus: Corpus | None,
                       author_affiliations: dict[str, str] | None
                       ) -> dict[str, staging.Payload]:
    """Every payload file of a fitted pipeline, by relative path."""
    if rec.model is None or rec.sem is None or rec.content_tfidf_ is None:
        raise NotFittedError("cannot save an unfitted NPRecRecommender")
    affiliations: dict[str, str] = dict(author_affiliations or {})
    if corpus is not None:
        affiliations.update({a.id: a.affiliation for a in corpus.authors
                             if a.affiliation})
    payloads = {
        "config.json": staging.json_payload(_config_payload(rec)),
        "graph.json": staging.json_payload(rec.model.graph.to_payload()),
        "papers.json": staging.json_payload({
            "train_papers": [paper_to_dict(p)
                             for p in rec._train_by_id.values()],
            "author_affiliations": affiliations,
        }),
        "vocabulary.npz": staging.npz_payload({
            "terms": np.asarray(rec.content_tfidf_.terms),
            "idf": rec.content_tfidf_.idf_,
        }),
    }
    payloads.update(_sem_payloads(rec.sem))
    payloads.update(_model_payloads(rec.model))
    if rec._profile_text is not None:
        payloads.update(_profile_text_payloads(rec._profile_text))
    return payloads


def _config_payload(rec: NPRecRecommender) -> dict:
    model = rec.model
    assert model is not None
    return {
        "nprec_config": dataclasses.asdict(rec.config),
        "model": {
            "dim": model.dim,
            "neighbor_k": model.neighbor_k,
            "depth": model.depth,
            "table_seed": model.table_seed,
            "use_text": model.use_text,
            "use_network": model.use_network,
            "influence_citations": model.influence_citations,
            "block_gates": list(model.block_gates),
            "content_gate": model.content_gate,
            "content_trained_gate": model.content_trained_gate,
            "content_width": (None if model.content_matrix is None
                              else model.content_matrix.shape[1]),
        },
        "has_profile_text": rec._profile_text is not None,
    }


def _sem_payloads(sem: SubspaceEmbeddingMethod
                  ) -> dict[str, staging.Payload]:
    encoder = sem.encoder
    network = sem.network
    rules = sem.rules
    if encoder is None or network is None or rules is None:
        raise NotFittedError("cannot save an unfitted SEM pipeline")
    mean, std = rules._require_fitted()
    payloads = {
        "sem/encoder.json": staging.json_payload({
            "dim": encoder.dim,
            "sif_a": encoder.sif_a,
            "max_words": encoder.max_words,
            "total_words": encoder._total_words,
            "frequency": dict(encoder._frequency),
        }),
        "sem/encoder.npz": staging.npz_payload(
            {"rotation": encoder._rotation}),
        "sem/network.npz": staging.npz_payload(network.state_dict()),
        "sem/rules.npz": staging.npz_payload({
            "weights": np.asarray(rules.weights),
            "mean": mean,
            "std": std,
        }),
    }
    if sem.labeler is not None:
        if sem.labeler.emission_ is None or sem.labeler.transition_ is None:
            raise NotFittedError("SEM labeler exists but is not fitted")
        payloads["sem/labeler.npz"] = staging.npz_payload({
            "emission": sem.labeler.emission_,
            "transition": sem.labeler.transition_,
        })
    return payloads


def _model_payloads(model: NPRecModel) -> dict[str, staging.Payload]:
    static: dict[str, np.ndarray] = {"nonpaper_mask": model._nonpaper_mask}
    if model._text_matrix is not None:
        static["text_matrix"] = model._text_matrix
    content = model.content_matrix
    if content is not None:
        static["content_data"] = content.data
        static["content_indices"] = content.indices
        static["content_indptr"] = content.indptr
    return {
        "model/weights.npz": staging.npz_payload(model.state_dict()),
        "model/static.npz": staging.npz_payload(static),
        "model/neighbours.npz": staging.npz_payload(model._tables),
    }


def _profile_text_payloads(module: JTIERecommender
                           ) -> dict[str, staging.Payload]:
    if module.bilinear_ is None:
        raise NotFittedError("profile-text module exists but is not fitted")
    arrays = {"bilinear.weight": module.bilinear_.weight.data}
    head = module._head
    arrays["head.weight"] = head.weight.data
    if head.bias is not None:
        arrays["head.bias"] = head.bias.data
    return {
        "profile_text/meta.json": staging.json_payload({
            "text_dim": module.text_dim,
            "venue_rate": module._venue_rate,
            "author_h": module._author_h,
        }),
        "profile_text/weights.npz": staging.npz_payload(arrays),
    }


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
def _verify_manifest(root: Path) -> dict:
    faults.maybe_fail("artifact.verify")
    return staging.verify(root, KIND, SCHEMA_VERSION)


def load_pipeline(directory: str | os.PathLike) -> NPRecRecommender:
    """Reload a pipeline saved by :func:`save_pipeline`.

    Verifies the manifest (schema version + per-file SHA-256) before
    touching any payload, then reconstructs the recommender exactly:
    ``rank()`` on the returned object is bit-identical to the original,
    and papers ingested after the round trip draw the neighbour-table
    rows the original would.

    Raises
    ------
    SchemaVersionError
        If the artifact was written under a different schema version.
    ArtifactError
        If the manifest is missing/corrupt or any file fails its
        checksum.
    RetryExhaustedError
        If an injected (transient) fault at the ``artifact.verify`` or
        ``artifact.load`` sites persists across all retry attempts.
    """
    root = Path(directory)

    # Injected (transient) faults are retried at the source so fault-
    # injection runs exercise this recovery path without every caller
    # needing its own handler; real corruption raises immediately.
    @retry(attempts=3, backoff=Backoff(base=0.02), retry_on=(InjectedFault,),
           name="artifact.load")
    def _load() -> NPRecRecommender:
        with obs.trace("serve.load_pipeline", directory=str(root)):
            manifest = _verify_manifest(root)
            faults.maybe_fail("artifact.load")
            try:
                return _rebuild(root, manifest)
            except (KeyError, ValueError, OSError) as exc:
                raise ArtifactError(
                    f"artifact at {root} passed integrity checks but could "
                    f"not be deserialised: {exc}") from exc

    return _load()


def manifest_extra(directory: str | os.PathLike) -> dict:
    """The manifest's free-form ``extra`` metadata.

    ``{}`` when the manifest is missing or unreadable; loading the
    artifact (:func:`load_pipeline`) is what reports that.
    """
    try:
        return dict(staging.read_manifest(directory).get("extra", {}))
    except (ArtifactError, OSError):
        return {}


def load_author_affiliations(directory: str | os.PathLike) -> dict[str, str]:
    """The ``author id -> affiliation`` map stored in an artifact."""
    payload = _read_json(Path(directory) / "papers.json")
    return dict(payload.get("author_affiliations", {}))


# ----------------------------------------------------------------------
# Serving-pool snapshot (WAL compaction, see save_compacted)
# ----------------------------------------------------------------------
def load_pool(directory: str | os.PathLike) -> list:
    """Reload the pool snapshot; ``[]`` when the artifact has none.

    Raises :class:`~repro.errors.ArtifactError` for a present-but-corrupt
    snapshot (callers decide whether that degrades or aborts;
    :meth:`ServingIndex.from_artifact` counts it and starts without).
    """
    staging.recover(directory)  # the first read of a serving startup
    path = Path(directory) / POOL_FILE
    if not path.is_file():
        return []
    try:
        payload = _read_json(path)
        return [paper_from_dict(entry) for entry in payload["papers"]]
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError,
            TypeError) as exc:
        raise ArtifactError(
            f"pool snapshot at {path} could not be deserialised: "
            f"{exc}") from exc


# ----------------------------------------------------------------------
# ANN quantizer persistence
# ----------------------------------------------------------------------
def pool_fingerprint(paper_ids: "list[str] | tuple[str, ...]") -> str:
    """SHA-256 of the ordered pool ids an ANN index was built over.

    Inverted-list entries are pool *positions*, so an adopted quantizer
    is only valid for the exact id sequence it saw at cluster time.
    """
    digest = hashlib.sha256()
    for paper_id in paper_ids:
        digest.update(paper_id.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def save_ann_index(directory: str | os.PathLike, ivf,
                   paper_ids: "list[str] | tuple[str, ...]") -> Path:
    """Persist a fitted IVF quantizer inside an existing artifact.

    Writes a new snapshot of the artifact adding ``ann/ivf.npz``
    (centroids + row assignments) and ``ann/ivf.json`` (construction
    parameters plus the :func:`pool_fingerprint` of *paper_ids*) and
    carrying the other files under their old checksums. The artifact
    must already exist (``save_pipeline`` first).

    Raises :class:`~repro.errors.NotFittedError` for an unfitted index
    and :class:`~repro.errors.ArtifactError` when *directory* is not an
    artifact.
    """
    payloads = _ann_payloads(ivf, paper_ids)
    root = Path(directory)
    try:
        manifest = staging.read_manifest(root)
    except ArtifactError as exc:
        raise ArtifactError(f"{exc} (save_pipeline before save_ann_index)"
                            ) from exc
    with obs.trace("serve.save_ann_index", directory=str(root)):
        staging.write_snapshot(root, payloads, manifest, carry_from=root)
        obs.count("serve.ann.artifact_saved")
    return root / "ann"


def _ann_payloads(ivf, paper_ids: "list[str] | tuple[str, ...]"
                  ) -> dict[str, staging.Payload]:
    from repro.serve.ann import IVFIndex

    if not isinstance(ivf, IVFIndex) or not ivf.fitted:
        raise NotFittedError("save_ann_index needs a fitted IVFIndex")
    if ivf.num_rows != len(paper_ids):
        raise ArtifactError(
            f"quantizer covers {ivf.num_rows} rows but the pool has "
            f"{len(paper_ids)} papers — cluster the pool you serve")
    meta = ivf.meta()
    meta["pool_sha256"] = pool_fingerprint(paper_ids)
    return {"ann/ivf.npz": staging.npz_payload(ivf.to_arrays()),
            "ann/ivf.json": staging.json_payload(meta)}


def load_ann_index(directory: str | os.PathLike):
    """Reload ``(IVFIndex, meta)`` saved by :func:`save_ann_index`.

    Raises :class:`~repro.errors.ArtifactError` when the artifact holds
    no quantizer or the payload cannot be deserialised. Callers decide
    what a stale fingerprint means (serving refits lazily).
    """
    from repro.serve.ann import IVFIndex

    root = Path(directory)
    meta_path = root / "ann" / "ivf.json"
    if not meta_path.is_file():
        raise ArtifactError(f"artifact at {root} holds no ANN quantizer "
                            "(run save_ann_index / warmup --index ivf)")
    try:
        meta = _read_json(meta_path)
        arrays = _load_npz(root / "ann" / "ivf.npz")
        index = IVFIndex.from_arrays(arrays, meta)
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, ValueError,
            OSError) as exc:
        raise ArtifactError(
            f"ANN quantizer at {root / 'ann'} could not be deserialised: "
            f"{exc}") from exc
    obs.count("serve.ann.artifact_loaded")
    return index, meta


def _rebuild(root: Path, manifest: dict) -> NPRecRecommender:
    config_payload = _read_json(root / "config.json")
    nprec_dict = dict(config_payload["nprec_config"])
    sem_dict = dict(nprec_dict.pop("sem"))
    sem_dict["hidden_dims"] = tuple(sem_dict["hidden_dims"])
    nprec_dict["block_gates"] = tuple(nprec_dict["block_gates"])
    config = NPRecConfig(sem=SEMConfig(**sem_dict), **nprec_dict)

    papers_payload = _read_json(root / "papers.json")
    train_papers = [paper_from_dict(entry)
                    for entry in papers_payload["train_papers"]]

    rec = NPRecRecommender(config)
    rec.sem = _load_sem(config.sem, root / "sem")
    graph = HeterogeneousGraph.from_payload(_read_json(root / "graph.json"))
    rec.model = _load_model(graph, config_payload["model"], root / "model")
    rec._train_by_id = {p.id: p for p in train_papers}
    vocabulary = _load_npz(root / "vocabulary.npz")
    rec.content_tfidf_ = TfIdfIndex.from_terms(vocabulary["terms"].tolist(),
                                               vocabulary["idf"])
    if config_payload.get("has_profile_text"):
        rec._profile_text = _load_profile_text(root / "profile_text",
                                               rec.content_tfidf_)
    obs.count("serve.artifact.loaded")
    return rec


def _load_sem(config: SEMConfig, root: Path) -> SubspaceEmbeddingMethod:
    sem = SubspaceEmbeddingMethod(config)
    meta = _read_json(root / "encoder.json")
    encoder = SentenceEncoder(dim=int(meta["dim"]), sif_a=float(meta["sif_a"]),
                              max_words=int(meta["max_words"]))
    encoder._rotation = _load_npz(root / "encoder.npz")["rotation"]
    encoder._frequency = Counter(
        {word: int(count) for word, count in meta["frequency"].items()})
    encoder._total_words = int(meta["total_words"])
    sem.encoder = encoder

    rules_arrays = _load_npz(root / "rules.npz")
    rules = ExpertRuleSet(encoder, num_subspaces=config.num_subspaces)
    rules._mean = rules_arrays["mean"]
    rules._std = rules_arrays["std"]
    rules.set_weights(rules_arrays["weights"])
    sem.rules = rules

    network = SubspaceEmbeddingNetwork(
        in_dim=config.encoder_dim, hidden_dims=config.hidden_dims,
        out_dim=config.out_dim, num_subspaces=config.num_subspaces,
        context_weight=config.context_weight, rng=0)
    load_module(network, root / "network.npz")
    sem.network = network

    labeler_path = root / "labeler.npz"
    if labeler_path.is_file():
        arrays = _load_npz(labeler_path)
        labeler = SequenceLabeler(num_labels=config.num_subspaces,
                                  epochs=config.labeler_epochs)
        labeler.emission_ = arrays["emission"]
        labeler.transition_ = arrays["transition"]
        sem.labeler = labeler
    return sem


def _load_model(graph: HeterogeneousGraph, arch: dict,
                root: Path) -> NPRecModel:
    static = _load_npz(root / "static.npz")
    text_matrix = static.get("text_matrix")
    paper_rows = {graph.key_of(i).id: i
                  for i in graph.entities_of_type("paper")}
    text_vectors = None
    if arch["use_text"]:
        if text_matrix is None:
            raise ArtifactError("use_text model without a persisted text matrix")
        text_vectors = {pid: text_matrix[row]
                        for pid, row in paper_rows.items()}
    content = None
    if arch["content_width"] is not None:
        try:
            content = ContentRows(static["content_data"],
                                  static["content_indices"],
                                  static["content_indptr"],
                                  int(arch["content_width"]))
        except KeyError:
            raise ArtifactError(
                "content model without persisted content arrays") from None

    # The content store and the neighbour tables are passed as persisted:
    # the constructor takes them as they are, with no dense detour, no
    # re-normalisation and no draw.
    model = NPRecModel(
        graph, text_vectors, dim=int(arch["dim"]),
        neighbor_k=int(arch["neighbor_k"]), depth=int(arch["depth"]),
        use_text=bool(arch["use_text"]), use_network=bool(arch["use_network"]),
        influence_citations=bool(arch["influence_citations"]),
        content_vectors=content, seed=0,
        neighbour_tables=_load_npz(root / "neighbours.npz"))
    # Overwrite every other derived array with the exact persisted bytes:
    # the constructor re-draws init weights, which is not guaranteed
    # bit-stable across numpy builds.
    model.table_seed = int(arch["table_seed"])
    model.block_gates = [float(g) for g in arch["block_gates"]]
    model.content_gate = float(arch["content_gate"])
    model.content_trained_gate = float(arch["content_trained_gate"])
    model._nonpaper_mask = static["nonpaper_mask"]
    if text_matrix is not None:
        model._text_matrix = text_matrix
    model.load_state_dict(_load_npz(root / "weights.npz"))
    return model


def _load_profile_text(root: Path,
                       vocabulary: TfIdfIndex) -> JTIERecommender:
    meta = _read_json(root / "meta.json")
    module = JTIERecommender(text_dim=int(meta["text_dim"]), seed=0)
    # The head of the stored vocabulary, as the fit read it.
    module._tfidf = vocabulary.head(module.text_dim * 20)
    module._venue_rate = {k: float(v) for k, v in meta["venue_rate"].items()}
    module._author_h = {k: float(v) for k, v in meta["author_h"].items()}
    arrays = _load_npz(root / "weights.npz")
    dim = arrays["bilinear.weight"].shape[1]
    if dim != module._tfidf.dim + 3:
        raise ArtifactError(
            f"profile-text vocabulary drift: persisted bilinear expects "
            f"{dim} features, the stored vocabulary gives "
            f"{module._tfidf.dim + 3}")
    module.bilinear_ = Linear(dim, arrays["bilinear.weight"].shape[0],
                              bias=False, rng=0)
    module.bilinear_.weight.data = arrays["bilinear.weight"].copy()
    head = Linear(arrays["head.weight"].shape[1],
                  arrays["head.weight"].shape[0],
                  bias="head.bias" in arrays, rng=0)
    head.weight.data = arrays["head.weight"].copy()
    if head.bias is not None:
        head.bias.data = arrays["head.bias"].copy()
    module._head = head
    return module
