"""The fixed-seed corpora the workloads are built over.

Corpora are part of each workload's definition, so they use fixed seeds: the
benchmark's ``--seed`` only drives the request order, the probe choice and
the mutation stream (see :mod:`e2ebench.workloads`).
"""

from __future__ import annotations

import random
from typing import List, Mapping, Sequence, Tuple

from repro.datasets.fooddb import (
    FOODDB_SEARCH_SQL,
    comment_schema,
    customer_schema,
    restaurant_schema,
)
from repro.datasets.workloads import zipf_keyword_queries
from repro.db.database import Database
from repro.db.sqlparse import parse_psj_query
from repro.webapp.application import WebApplication
from repro.webapp.request import QueryStringSpec

SEARCH_URI = "www.example.com/Search"
SEARCH_SPEC = QueryStringSpec((("c", "cuisine"), ("l", "min"), ("u", "max")))

CORPUS_SEED = 7
POOL_SEED = 5

_BUDGETS = tuple(range(5, 17))  # 12 budgets per cuisine chain
_VOCABULARY = tuple(f"dish{index:04d}" for index in range(900))
_HOT_WORDS = ("burger", "noodle", "coffee", "curry")
_CUSTOMERS = 60

Query = Tuple[str, ...]


def synthetic_database(fragment_target: int) -> Database:
    """A fooddb-shaped database whose Search query derives ~``fragment_target``
    fragments: 12 budgets per cuisine, one or two comments of real text per
    restaurant, and four planted hot words in about half the comments."""
    rng = random.Random(CORPUS_SEED)
    database = Database("e2edb")
    database.create_relation(restaurant_schema())
    database.create_relation(customer_schema())
    database.create_relation(comment_schema())
    for index in range(_CUSTOMERS):
        database.insert("customer", (f"u{index:03d}", f"User{index:03d}"))
    restaurant = comment = 0
    for cuisine_index in range(max(1, fragment_target // len(_BUDGETS))):
        cuisine = f"Cuisine{cuisine_index:04d}"
        for budget in _BUDGETS:
            restaurant += 1
            rid = f"r{restaurant:06d}"
            rate = round(rng.uniform(2.0, 5.0), 1)
            database.insert("restaurant", (rid, f"Place {restaurant}", cuisine, budget, rate))
            for _ in range(rng.randint(1, 2)):
                comment += 1
                words = rng.sample(_VOCABULARY, rng.randint(4, 9))
                if rng.random() < 0.5:
                    words.append(rng.choice(_HOT_WORDS))
                uid = f"u{rng.randrange(_CUSTOMERS):03d}"
                database.insert(
                    "comment", (f"c{comment:06d}", rid, uid, " ".join(words), "07/12")
                )
    return database


def search_application(database: Database) -> WebApplication:
    """The fooddb ``Search`` application over ``database`` (declared query)."""
    return WebApplication(
        name="Search",
        uri=SEARCH_URI,
        query=parse_psj_query(FOODDB_SEARCH_SQL, database, name="Search"),
        query_string_spec=SEARCH_SPEC,
    )


def query_pool(document_frequencies: Mapping[str, int], size: int) -> List[Query]:
    """``size`` distinct 1-3-keyword queries, keywords drawn by DF rank.

    Fixed seed: the pool (and therefore which query sits at which popularity
    rank) is the same in every run of a workload.
    """
    pool: dict = {}
    draws = 2 * size
    while len(pool) < size:
        stream = zipf_keyword_queries(
            document_frequencies,
            draws,
            skew=1.0,
            keywords_per_query=(1, 3),
            seed=POOL_SEED,
        )
        pool = dict.fromkeys(stream.queries)
        draws *= 2
    return list(pool)[:size]


def zipf_block(pool_size: int, length: int, skew: float) -> List[int]:
    """A fixed ``length``-request sample of pool ranks with Zipf popularity."""
    rng = random.Random(POOL_SEED)
    weights = [1.0 / (rank ** skew) for rank in range(1, pool_size + 1)]
    return rng.choices(range(pool_size), weights=weights, k=length)


def distinct(block: Sequence[int]) -> List[int]:
    """The distinct pool indices of ``block`` in first-appearance order."""
    return list(dict.fromkeys(block))
