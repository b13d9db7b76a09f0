"""train_epochs: the PR-A2 model of the serve workloads through the
*other* implementation — module forward, autograd backward, Adam —
on a fixed corpus whose preparation (fleet simulation, node2vec,
candidate labelling) is this workload's set-up."""

from __future__ import annotations

import math
import time

from harness import Check, Round, Workload, median, ratio, region
from loadgen import digest
from repro.core.batching import encode_paths
from repro.core.trainer import Trainer, TrainerConfig
from repro.core.variants import build_pathrank
from repro.embedding.node2vec import Node2Vec, Node2VecConfig
from repro.nn import Adam, MSELoss, Tensor
from repro.ranking.evaluation import evaluate_scorer
from repro.ranking.training_data import (Strategy, TrainingDataConfig,
                                         generate_queries)
from repro.rng import make_rng, spawn
from repro.trajectories.dataset import TrajectoryDataset
from repro.trajectories.drivers import sample_population
from repro.trajectories.generator import FleetConfig, TrajectoryGenerator


class TrainEpochs(Workload):
    name = "train_epochs"

    def build(self) -> None:
        c, spans = self.consts, self.spans
        self.build_graph(lambda: region(c["network"]))
        # The fleet, and with it the corpus, is the same for every seed:
        # seeded fleets yield 470-710 paths of differing lengths, which
        # moved the cost of an epoch by +-20 %.  ``--seed`` drives the
        # node2vec start, the model initialisation and the batch order.
        population_rng, trip_rng, split_rng = spawn(
            make_rng(c["fleet_seed"]), 3)
        n2v_rng = make_rng(self.seed)
        fleet = FleetConfig(num_drivers=c["drivers"],
                            trips_per_driver=c["trips_per_driver"],
                            num_od_hotspots=c["od_hotspots"])
        with spans.span("trajectories.generate_fleet"):
            population = sample_population(fleet.num_drivers,
                                           rng=population_rng)
            trips = TrajectoryGenerator(self.network, population,
                                        fleet).generate(rng=trip_rng)
        split = TrajectoryDataset(self.network, trips).split(
            train_fraction=0.75, validation_fraction=0.0, rng=split_rng)
        with spans.span("embedding.node2vec_fit"):
            self.embedding = Node2Vec(self.network, Node2VecConfig(
                dim=c["dim"], num_walks=c["num_walks"],
                walk_length=c["walk_length"],
                epochs=c["node2vec_epochs"])).fit(rng=n2v_rng)
        labelling = TrainingDataConfig(
            strategy=Strategy.D_TKDI, k=c["k"],
            diversity_threshold=c["diversity_threshold"],
            examine_limit=c["examine_limit"])
        with spans.span("ranking.generate_queries"):
            self.train_queries = generate_queries(split.train, labelling)
            self.heldout = generate_queries(split.test, labelling)
        self.paths = sum(len(query) for query in self.train_queries)
        self.pinned_ops = digest(
            [path.vertices for query in self.train_queries
             for path in query.paths()])
        self.model = None
        self.round_index = 0
        self.losses: list[list[float]] = []

    def fresh_model(self, seed: int):
        c = self.consts
        return build_pathrank(
            "PR-A2", num_vertices=self.network.num_vertices,
            embedding_dim=c["dim"], embedding_matrix=self.embedding,
            hidden_size=c["hidden_size"], fc_hidden=c["fc_hidden"],
            dropout=c["dropout"], rng=seed)

    def round(self, seconds: float, traced: bool) -> Round:
        """Fresh seeded models, each fitted for ``epochs`` epochs, until
        the time is up; an op is one epoch over the fixed corpus."""
        c = self.consts
        epochs = c["epochs"]
        clock = time.perf_counter
        latencies, ok = [], 0
        cpu_began = time.process_time()
        began = clock()
        stop = began + seconds
        while True:
            self.round_index += 1
            model_seed = self.seed * 1000 + self.round_index
            self.model = self.fresh_model(model_seed)
            trainer = Trainer(self.model,
                              TrainerConfig(epochs=epochs, patience=epochs),
                              rng=model_seed)
            t0 = clock()
            with self.spans.span("core.trainer.fit", op=self.round_index):
                history = trainer.fit(self.train_queries)
            t1 = clock()
            losses = history.train_loss
            self.losses.append(losses)
            good = (len(losses) == epochs
                    and all(math.isfinite(v) for v in losses))
            ok += epochs if good else 0
            latencies.extend([(t1 - t0) * 1e3 / epochs] * epochs)
            if t1 + (t1 - t0) / 2.0 >= stop:    # less than half a fit left
                break
        wall = clock() - began
        attempted = len(latencies)
        return Round(
            attempted=attempted, ok=ok, throughput=ratio(ok, wall),
            latencies_ms=latencies, lat_attempted=attempted,
            within=sum(1 for v in latencies if v <= c["limit_ms"])
            if ok == attempted else 0,
            cpu_s=time.process_time() - cpu_began,
            notes=[] if ok == attempted else ["non-finite training loss"])

    def verify(self) -> Check:
        check = Check()
        losses = self.losses[-1]
        if self.inject == "oracle_mismatch":
            losses = losses[::-1]
        check.expect(losses[-1] < losses[0],
                     f"training loss did not fall: {losses}")
        with self.spans.span("ranking.evaluate"):
            began = time.perf_counter()
            self.tau = evaluate_scorer(self.model, self.heldout).tau
            self.evaluate_s = time.perf_counter() - began
        check.expect(self.tau >= self.consts["tau_floor"],
                     f"held-out tau {self.tau:.3f} under the floor "
                     f"{self.consts['tau_floor']}")
        return check

    def layers(self, rounds: list[Round]) -> dict[str, float]:
        """Forward, backward and optimiser step on fixed encoded batches,
        through the public module / tensor / optimiser calls."""
        c, spans = self.consts, self.spans
        clock = time.perf_counter
        model = self.fresh_model(self.seed)
        model.train()
        parameters = model.parameters(trainable_only=True)
        optimizer = Adam(parameters, lr=3e-3)
        loss_fn = MSELoss()
        size = c["replay_queries_per_batch"]
        forward, backward, step, encode = [], [], [], []
        cells = padded = 0
        began = clock()
        for start in range(0, len(self.train_queries), size):
            queries = self.train_queries[start:start + size]
            paths = [p for query in queries for p in query.paths()]
            targets = [s for query in queries for s in query.scores()]
            with spans.span("train.replay_batch", op=start):
                t0 = clock()
                with spans.span("core.batching.encode"):
                    vertex_ids, mask = encode_paths(paths)
                t1 = clock()
                optimizer.zero_grad()
                with spans.span("nn.autograd.forward"):
                    loss = loss_fn(model(vertex_ids, mask), Tensor(targets))
                t2 = clock()
                with spans.span("nn.autograd.backward"):
                    loss.backward()
                t3 = clock()
                with spans.span("nn.optim.step"):
                    optimizer.step()
                t4 = clock()
            encode.append(t1 - t0)
            forward.append(t2 - t1)
            backward.append(t3 - t2)
            step.append(t4 - t3)
            cells += mask.size
            padded += mask.size - int(mask.sum())
        replay_s = clock() - began
        epoch_s = median([v for r in rounds for v in r.latencies_ms]) / 1e3
        return self.graph_layers() | {
            "trajectories.generate_fleet_s":
                spans.total("trajectories.generate_fleet"),
            "embedding.node2vec_fit_s": spans.total("embedding.node2vec_fit"),
            "ranking.generate_queries_s":
                spans.total("ranking.generate_queries"),
            "ranking.evaluate_s": self.evaluate_s,
            "core.trainer.epoch_s": epoch_s,
            "core.trainer.paths_per_s": ratio(self.paths, epoch_s),
            "core.trainer.heldout_tau": self.tau,
            "core.trainer.final_loss": self.losses[-1][-1],
            "core.batching.encode_us_per_path":
                ratio(sum(encode), self.paths) * 1e6,
            "core.batching.padding_share": ratio(padded, cells),
            "nn.autograd.forward_ms_per_batch": median(forward) * 1e3,
            "nn.autograd.backward_ms_per_batch": median(backward) * 1e3,
            "nn.optim.step_ms_per_batch": median(step) * 1e3,
            # One replayed pass over the corpus against one fitted epoch.
            "bench.layer_coverage_share": ratio(replay_s, epoch_s),
        }
