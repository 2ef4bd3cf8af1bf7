"""Implementation-personality details (the paper's Section-4/5 internals)."""

import pytest

from repro.mpi import (
    IMPLEMENTATIONS,
    CommunicatorError,
    MpiUniverse,
    UnsupportedFeature,
    create_impl,
)
from repro.mpi.impls import LamImpl, Mpich2Impl, MpichImpl, RefMpiImpl

from conftest import ScriptProgram, make_universe, run_script


class TestPersonalityKnobs:
    def test_registry_contents(self):
        assert set(IMPLEMENTATIONS) == {"lam", "mpich", "mpich2", "refmpi"}
        with pytest.raises(ValueError, match="unknown MPI implementation"):
            create_impl("openmpi", MpiUniverse())

    def test_lam_knobs(self):
        assert LamImpl.pmpi_weak_symbols is False
        assert LamImpl.shared_memory_transport is True
        assert LamImpl.socket_functions == ("writev", "readv")
        assert LamImpl.win_start_blocks is True
        assert "spawn" in LamImpl.features
        assert "mpio" in LamImpl.features

    def test_mpich_knobs(self):
        assert MpichImpl.pmpi_weak_symbols is True
        assert MpichImpl.shared_memory_transport is False
        assert MpichImpl.socket_functions == ("write", "read")
        assert "rma" not in MpichImpl.features
        assert "spawn" not in MpichImpl.features

    def test_mpich2_knobs(self):
        assert "rma" in Mpich2Impl.features
        assert "spawn" not in Mpich2Impl.features  # 0.96p2 beta gap
        assert "rma_passive" not in Mpich2Impl.features
        assert Mpich2Impl.win_start_blocks is False

    def test_refmpi_extends_lam(self):
        assert "rma_passive" in RefMpiImpl.features
        assert "mpir_proctable" in RefMpiImpl.features
        assert issubclass(RefMpiImpl, LamImpl)


class TestImageShapes:
    def _image(self, impl):
        universe = make_universe(impl)
        world = universe.launch(ScriptProgram(_noop), 1)
        return world.endpoints[0].proc.image

    def test_mpich_exports_weak_mpi_and_strong_pmpi(self):
        image = self._image("mpich")
        assert image.lookup_strong("MPI_Send") is None
        assert image.lookup_strong("PMPI_Send") is not None
        assert image.resolve("MPI_Send") is image.resolve("PMPI_Send")

    def test_lam_exports_two_strong_sets(self):
        image = self._image("lam")
        assert image.lookup_strong("MPI_Send") is not None
        assert image.lookup_strong("PMPI_Send") is not None
        assert image.resolve("MPI_Send") is not image.resolve("PMPI_Send")

    def test_socket_function_names_differ(self):
        """LAM's vectored socket calls hide from the default read/write
        I/O metric set (Section 5.1.2's LAM-vs-MPICH I/O asymmetry)."""
        lam = self._image("lam")
        mpich = self._image("mpich")
        assert lam.lookup_strong("writev") is not None
        assert lam.lookup_strong("write") is None
        assert mpich.lookup_strong("write") is not None
        assert mpich.lookup_strong("writev") is None

    def test_mpi1_library_has_no_rma_symbols(self):
        image = self._image("mpich")
        assert image.lookup("MPI_Win_create") is None
        image2 = self._image("mpich2")
        assert image2.lookup("MPI_Win_create") is not None


class TestSemanticsAcrossImpls:
    def test_rank_out_of_range_raises(self):
        def script(mpi):
            yield from mpi.init()
            if mpi.rank == 0:
                yield from mpi.send(5, tag=1)
            yield from mpi.finalize()

        with pytest.raises(CommunicatorError, match="out of range"):
            run_script(script, 2)

    def test_mpio_minimal_roundtrip(self):
        out = {}

        def script(mpi):
            yield from mpi.init()
            fh = yield from mpi.file_open("/scratch/data.bin")
            yield from mpi.file_write_at(fh, 0, 4096)
            got = yield from mpi.file_read_at(fh, 0, 1024)
            out.setdefault("reads", []).append(got)
            yield from mpi.file_close(fh)
            out["written"] = fh.bytes_written
            yield from mpi.finalize()

        run_script(script, 2, impl="lam")
        assert out["reads"] == [1024, 1024]
        assert out["written"] == 2 * 4096

    def test_mpio_unsupported_on_mpich1(self):
        def script(mpi):
            yield from mpi.init()
            yield from mpi.file_open("/x")
            yield from mpi.finalize()

        from repro.dyninst.image import ImageError

        with pytest.raises(ImageError):  # MPI-1 library lacks the symbols
            run_script(script, 1, impl="mpich")

    def test_finalize_synchronizes_world(self):
        exits = {}

        def script(mpi):
            yield from mpi.init()
            if mpi.rank == 0:
                yield from mpi.compute(1.0)
            yield from mpi.finalize()
            exits[mpi.rank] = mpi.proc.kernel.now

        run_script(script, 3)
        assert min(exits.values()) >= 1.0

    def test_system_time_invisible_to_user_cpu(self):
        def script(mpi):
            yield from mpi.init()
            yield from mpi.system_work(2.0)
            yield from mpi.finalize()

        uni, world = run_script(script, 1)
        proc = world.endpoints[0].proc
        assert proc.cpu_system_time() > 1.9
        assert proc.cpu_user_time() < 0.1

    @pytest.mark.parametrize("impl", ["lam", "mpich"])
    def test_same_program_same_results_different_costs(self, impl):
        """Both personalities compute the same answers; only timing differs."""
        out = {}

        def script(mpi):
            yield from mpi.init()
            total = yield from mpi.allreduce(mpi.rank)
            out.setdefault(impl, []).append(total)
            yield from mpi.finalize()

        run_script(script, 4, impl=impl)
        assert out[impl] == [6, 6, 6, 6]


def _noop(mpi):
    yield from mpi.init()
    yield from mpi.finalize()
