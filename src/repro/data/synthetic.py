"""Deterministic synthetic scholarly corpora with planted innovation signal.

The paper's experiments run on ACM DL, Scopus, PubMedRCT, and a USPTO
patent set — none of which ship with this reproduction. This module
generates corpora with the same schema and, crucially, the same *causal
structure* the paper's analyses exploit:

* every paper carries a hidden per-subspace novelty ``z_k`` (background /
  method / result);
* abstract sentences for subspace ``k`` mix topic-conventional vocabulary
  with novel "frontier" vocabulary in proportion to ``z_k``, so text-level
  subspace difference genuinely increases with planted novelty;
* citations (in-corpus references *and* external counts) are sampled with
  intensity ``exp(sum_k w_k^field * z_k)`` where the weights ``w_k^field``
  encode the paper's qualitative findings — computer science rewards method
  novelty, medicine rewards result novelty, sociology rewards background /
  method novelty;
* authors have home topics, power-law productivity, and sticky co-author
  groups (needed for the Fig. 5 author-embedding study);
* reference lists are topic-local with preferential attachment, giving the
  citation graph the usual scholarly degree distribution.

Everything is a pure function of :class:`SyntheticCorpusConfig` (including
its seed), so experiments are exactly repeatable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.data.corpus import Corpus
from repro.data.schema import Author, Paper, Venue
from repro.data.taxonomy import ClassificationTree, acm_ccs_like, discipline_tree
from repro.text.sequence_labeler import CUE_WORDS, SUBSPACE_NAMES
from repro.utils.rng import as_generator

#: Citation-intensity weights per discipline and subspace. These encode the
#: discipline characteristics reported in Tab. I / Fig. 3: bold cells of
#: the paper (CS->method, medicine->result, sociology->background+method).
DISCIPLINE_PROFILES: dict[str, dict[str, float]] = {
    "computer_science": {"background": 0.25, "method": 1.00, "result": 0.60},
    "medicine": {"background": 0.40, "method": 0.20, "result": 1.00},
    "sociology": {"background": 0.95, "method": 0.75, "result": 0.25},
}

#: Fallback profile for fields without an explicit entry (ACM CCS areas all
#: behave like computer science).
DEFAULT_PROFILE: dict[str, float] = DISCIPLINE_PROFILES["computer_science"]

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class SyntheticCorpusConfig:
    """Configuration of one synthetic corpus.

    Attributes mirror the knobs that differ between the paper's datasets
    (see Tab. III and Sec. III-C): scale, year range, sentence counts,
    and which metadata features exist (patents lack keywords/venues).
    """

    name: str = "synthetic"
    n_papers: int = 600
    n_authors: int = 200
    n_venues: int = 12
    year_min: int = 2008
    year_max: int = 2017
    disciplines: tuple[str, ...] = ("computer_science", "medicine", "sociology")
    taxonomy_kind: str = "discipline"  # "discipline" | "acm"
    topics_per_discipline: int = 4
    avg_sentences: float = 6.0
    refs_mean: float = 9.0
    keywords_min: int = 4
    keywords_max: int = 7
    include_keywords: bool = True
    include_venues: bool = True
    include_affiliations: bool = True
    assign_months: bool = False
    novelty_alpha: float = 1.3
    novelty_beta: float = 3.5
    novelty_text_strength: float = 1.0
    novelty_text_power: float = 1.0
    citation_scale: float = 0.45
    citation_exponent: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_papers < 1 or self.n_authors < 1:
            raise ValueError("n_papers and n_authors must be >= 1")
        if self.year_min > self.year_max:
            raise ValueError(f"year range inverted: {self.year_min} > {self.year_max}")
        if self.taxonomy_kind not in ("discipline", "acm"):
            raise ValueError(f"unknown taxonomy_kind {self.taxonomy_kind!r}")
        if not self.disciplines:
            raise ValueError("at least one discipline required")
        if self.keywords_min > self.keywords_max:
            raise ValueError("keywords_min > keywords_max")
        if self.avg_sentences < 3:
            raise ValueError("avg_sentences must be >= 3 (one per subspace)")

    def scaled(self, factor: float) -> "SyntheticCorpusConfig":
        """Return a copy with paper/author/venue counts scaled by *factor*."""
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        return replace(
            self,
            n_papers=max(1, int(self.n_papers * factor)),
            n_authors=max(1, int(self.n_authors * factor)),
            n_venues=max(1, int(self.n_venues * factor**0.5)),
        )


class _LexiconFactory:
    """Generates deterministic pseudo-word lexicons per discipline/topic."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._seen: set[str] = set()

    def word(self, syllables: int = 3) -> str:
        """A fresh pronounceable pseudo-word, unique within this corpus."""
        for _ in range(64):
            parts = []
            for _ in range(syllables):
                c = _CONSONANTS[int(self._rng.integers(len(_CONSONANTS)))]
                v = _VOWELS[int(self._rng.integers(len(_VOWELS)))]
                parts.append(c + v)
            candidate = "".join(parts)
            if candidate not in self._seen:
                self._seen.add(candidate)
                return candidate
        # Fall back to an indexed suffix if collisions pile up.
        candidate = f"{candidate}x{len(self._seen)}"
        self._seen.add(candidate)
        return candidate

    def pool(self, size: int, syllables: int = 3) -> list[str]:
        """A list of *size* fresh pseudo-words."""
        return [self.word(syllables) for _ in range(size)]


def _topic_discipline(tree: ClassificationTree, leaf: str) -> str:
    """Top-level ancestor of *leaf* — the paper's field label."""
    return tree.path_to_root(leaf)[0]


def generate_corpus(config: SyntheticCorpusConfig) -> Corpus:
    """Generate a corpus according to *config*. Pure and deterministic."""
    rng = as_generator(config.seed)
    lexicon = _LexiconFactory(rng)

    # ------------------------------------------------------------------
    # Taxonomy and per-topic vocabularies
    # ------------------------------------------------------------------
    if config.taxonomy_kind == "acm":
        tree = acm_ccs_like(areas_per_top=2,
                            topics_per_area=max(1, config.topics_per_discipline // 2),
                            seed=int(rng.integers(2**31)))
    else:
        tree = discipline_tree(config.disciplines,
                               topics_per_discipline=config.topics_per_discipline,
                               seed=int(rng.integers(2**31)))
    leaves = list(tree.leaves())
    fields = sorted({_topic_discipline(tree, leaf) for leaf in leaves})

    common_pool = {f: lexicon.pool(120) for f in fields}
    frontier_pool = {
        (f, role): lexicon.pool(140) for f in fields for role in SUBSPACE_NAMES
    }
    topic_vocab: dict[str, dict[str, list[str]]] = {}
    topic_keywords: dict[str, list[str]] = {}
    for leaf in leaves:
        discipline = _topic_discipline(tree, leaf)
        vocab_by_role: dict[str, list[str]] = {}
        for role in SUBSPACE_NAMES:
            # Real research topics inside one discipline share most of
            # their vocabulary; only a minority of terms is truly
            # topic-specific. This keeps pure lexical matching (TF-IDF)
            # honest while the classification/venue/author entities stay
            # perfectly topical.
            shared = [common_pool[discipline][int(rng.integers(120))] for _ in range(16)]
            vocab_by_role[role] = lexicon.pool(10) + shared
        topic_vocab[leaf] = vocab_by_role
        topic_keywords[leaf] = lexicon.pool(14, syllables=2)

    # ------------------------------------------------------------------
    # Venues and authors
    # ------------------------------------------------------------------
    venues: list[Venue] = []
    venue_prestige: dict[str, float] = {}
    venues_by_field: dict[str, list[str]] = {f: [] for f in fields}
    if config.include_venues:
        for i in range(config.n_venues):
            f = fields[i % len(fields)]
            vid = f"{config.name}-v{i:03d}"
            venues.append(Venue(id=vid, name=f"Venue {i} of {f}", field=f))
            venue_prestige[vid] = float(rng.uniform(0.0, 1.0))
            venues_by_field[f].append(vid)

    authors: list[Author] = []
    author_home: dict[str, str] = {}
    author_weight: dict[str, float] = {}
    author_collaborators: dict[str, list[str]] = {}
    authors_by_field: dict[str, list[str]] = {f: [] for f in fields}
    affiliation_pool = [f"institute-{i}" for i in range(max(3, config.n_authors // 12))]
    for i in range(config.n_authors):
        aid = f"{config.name}-a{i:04d}"
        home = leaves[int(rng.integers(len(leaves)))]
        affiliation = (affiliation_pool[int(rng.integers(len(affiliation_pool)))]
                       if config.include_affiliations else None)
        authors.append(Author(id=aid, name=f"Author {i}", affiliation=affiliation))
        author_home[aid] = home
        author_weight[aid] = float((i + 1) ** -0.8)  # power-law productivity
        author_collaborators[aid] = []
        authors_by_field[_topic_discipline(tree, home)].append(aid)

    # ------------------------------------------------------------------
    # Papers
    # ------------------------------------------------------------------
    years = np.sort(rng.integers(config.year_min, config.year_max + 1,
                                 size=config.n_papers))
    papers: list[Paper] = []
    paper_topic: dict[str, str] = {}
    in_degree = np.zeros(config.n_papers)
    paper_field_idx: list[str] = []
    attractiveness = np.zeros(config.n_papers)
    prestige = np.zeros(config.n_papers)

    all_author_ids = list(author_home)
    author_productivity = np.array([author_weight[a] for a in all_author_ids])
    author_productivity /= author_productivity.sum()
    # Citation habits (Sec. IV-G of the paper): how often each lead author
    # has cited each other author so far; repeatedly-cited teams receive a
    # boost in later reference sampling. This signal lives purely in the
    # academic network (author entities), not in the text.
    citation_habit: dict[str, dict[str, int]] = {a: {} for a in all_author_ids}

    for i in range(config.n_papers):
        pid = f"{config.name}-p{i:05d}"
        # Lead author first; the paper's topic follows the lead's home
        # topic most of the time, so publication histories are topically
        # coherent — the premise of interest modelling in Sec. IV.
        lead = all_author_ids[int(rng.choice(len(all_author_ids),
                                             p=author_productivity))]
        if rng.random() < 0.95:
            leaf = author_home[lead]
        else:
            leaf = leaves[int(rng.integers(len(leaves)))]
        discipline = _topic_discipline(tree, leaf)
        profile = DISCIPLINE_PROFILES.get(discipline, DEFAULT_PROFILE)

        novelty = {role: float(rng.beta(config.novelty_alpha, config.novelty_beta))
                   for role in SUBSPACE_NAMES}
        attract = sum(profile[role] * novelty[role] for role in SUBSPACE_NAMES)

        # --- co-authors: sticky collaborator groups, topic-local ---------
        pool = authors_by_field[discipline] or all_author_ids
        same_home = [a for a in pool if author_home[a] == leaf]
        team = [lead]
        n_coauthors = int(rng.integers(0, 4))
        for _ in range(n_coauthors):
            known = [a for a in author_collaborators[lead] if a not in team]
            if known and rng.random() < 0.6:
                team.append(known[int(rng.integers(len(known)))])
                continue
            source = same_home if same_home and rng.random() < 0.7 else pool
            candidate = source[int(rng.integers(len(source)))]
            if candidate not in team:
                team.append(candidate)
        for a in team:
            for b in team:
                if a != b and b not in author_collaborators[a]:
                    author_collaborators[a].append(b)

        # --- abstract text ------------------------------------------------
        n_sent = max(3, int(rng.poisson(config.avg_sentences)))
        counts = {
            "background": max(1, round(n_sent * 0.30)),
            "method": max(1, round(n_sent * 0.40)),
        }
        counts["result"] = max(1, n_sent - counts["background"] - counts["method"])
        sentences: list[str] = []
        labels: list[int] = []
        own_words = lexicon.pool(4)
        for role_id, role in enumerate(SUBSPACE_NAMES):
            vocab = topic_vocab[leaf][role]
            frontier = frontier_pool[(discipline, role)]
            # Zipf-weighted conventional vocabulary: a few core topic words
            # dominate, so within-topic text variance stays low and the
            # novelty-driven drift remains detectable by LOF downstream.
            zipf = 1.0 / np.arange(1, len(vocab) + 1) ** 1.6
            zipf /= zipf.sum()
            novel_fraction = (config.novelty_text_strength
                              * novelty[role] ** config.novelty_text_power)
            for sentence_index in range(counts[role]):
                cues = [str(w) for w in rng.choice(sorted(CUE_WORDS[role]),
                                                   size=int(rng.integers(1, 3)), replace=False)]
                body_len = int(rng.integers(7, 13))
                # A deterministic core of top topic words anchors every
                # conventional sentence, keeping within-topic variance low;
                # novel displacement is carried mostly by paper-unique
                # words so innovative papers become genuine LOF outliers
                # rather than clustering with other innovators.
                body: list[str] = [vocab[(sentence_index + j) % 3] for j in range(2)]
                # Deterministic novel-word count (instead of Bernoulli per
                # word) removes binomial noise from the novelty channel.
                n_novel = int(round(novel_fraction * (body_len - 2)))
                for _ in range(n_novel):
                    if rng.random() < 0.95:
                        body.append(own_words[int(rng.integers(len(own_words)))])
                    else:
                        body.append(frontier[int(rng.integers(len(frontier)))])
                for _ in range(body_len - 2 - n_novel):
                    if rng.random() < 0.7:
                        body.append(vocab[int(rng.choice(len(vocab), p=zipf))])
                    else:
                        pool_c = common_pool[discipline]
                        body.append(pool_c[int(rng.integers(len(pool_c)))])
                interior = body[1:]
                rng.shuffle(interior)
                body[1:] = interior
                words = cues + body
                sentences.append(words[0].capitalize() + " " + " ".join(words[1:]) + ".")
                labels.append(role_id)
        abstract = " ".join(sentences)
        title_words = [str(w) for w in rng.choice(topic_vocab[leaf]["method"], size=5, replace=False)]
        title = " ".join(title_words).capitalize()

        # --- keywords -------------------------------------------------------
        keywords: tuple[str, ...] = ()
        if config.include_keywords:
            k = int(rng.integers(config.keywords_min, config.keywords_max + 1))
            chosen = [str(w) for w in rng.choice(topic_keywords[leaf],
                                                 size=min(k, len(topic_keywords[leaf])),
                                                 replace=False)]
            novel_kw = int(round(np.mean(list(novelty.values())) * 3))
            for j in range(min(novel_kw, len(chosen))):
                chosen[j] = lexicon.word(syllables=2)
            keywords = tuple(chosen)

        # --- venue & academic authority --------------------------------------
        venue_id = None
        if config.include_venues and venues_by_field[discipline]:
            options = venues_by_field[discipline]
            venue_id = options[int(rng.integers(len(options)))]
        authority = 0.0
        if venue_id is not None:
            authority += 0.5 * venue_prestige[venue_id]
        authority += 0.4 * min(1.0, max(author_weight[a] for a in team) * 3)
        prestige[i] = authority

        # --- references (topic-local, authority- and novelty-driven) --------
        references: tuple[str, ...] = ()
        if i > 0:
            earlier = np.arange(i)
            same_topic = np.array([paper_topic[papers[j].id] == leaf for j in earlier])
            same_field = np.array([paper_field_idx[j] == discipline for j in earlier])
            base = np.where(same_topic, 150.0, np.where(same_field, 1.0, 0.1))
            # Novel papers read more broadly across topics.
            cross_boost = 1.0 + 1.5 * float(np.mean(list(novelty.values())))
            base = np.where(~same_topic & same_field, base * cross_boost, base)
            # Preferential attachment is sub-linear so that the visible
            # signals — text attractiveness and academic authority (venue
            # prestige, author productivity), both recoverable by models —
            # dominate citation choice over the invisible in-degree.
            habits = citation_habit[lead]
            affinity = np.array([
                min(5, sum(habits.get(a, 0) for a in papers[j].authors))
                for j in earlier
            ], dtype=float)
            weight = (base * np.sqrt(1.0 + in_degree[:i])
                      * (1.0 + 0.8 * affinity)
                      * np.exp(2.0 * attractiveness[:i] + 1.5 * prestige[:i]))
            weight = weight / weight.sum()
            n_refs = int(min(i, max(1, rng.poisson(config.refs_mean))))
            picked = rng.choice(i, size=n_refs, replace=False, p=weight)
            references = tuple(papers[j].id for j in sorted(picked))
            for j in picked:
                in_degree[j] += 1
                for cited_author in papers[j].authors:
                    habits[cited_author] = habits.get(cited_author, 0) + 1

        month = int(rng.integers(1, 13)) if config.assign_months else None

        papers.append(Paper(
            id=pid,
            title=title,
            abstract=abstract,
            year=int(years[i]),
            month=month,
            field=discipline,
            category_path=tree.path_to_root(leaf),
            keywords=keywords,
            references=references,
            authors=tuple(team),
            venue=venue_id,
            citation_count=0,  # filled in below
            sentence_labels=tuple(labels),
            novelty=dict(novelty),
        ))
        paper_topic[pid] = leaf
        paper_field_idx.append(discipline)
        attractiveness[i] = attract

    # ------------------------------------------------------------------
    # External citations: age-accrued Poisson driven by attractiveness
    # ------------------------------------------------------------------
    horizon = config.year_max
    finalised: list[Paper] = []
    for i, paper in enumerate(papers):
        age = max(1, horizon - paper.year + 1)
        # sub-linear age accrual: citations saturate, keeping a genuine
        # low-cited stratum even for older papers (needed by Tab. II)
        rate = (config.citation_scale * np.sqrt(age)
                * np.exp(config.citation_exponent * attractiveness[i] + prestige[i]))
        external = int(rng.poisson(rate))
        finalised.append(replace(paper, citation_count=int(in_degree[i]) + external))

    return Corpus(config.name, finalised, authors=authors, venues=venues,
                  taxonomy=tree, strict=True)
